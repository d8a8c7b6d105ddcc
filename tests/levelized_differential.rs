//! Differential suite: the levelized `run_to_quiescence` against the
//! event loop.
//!
//! On a levelizable netlist (register-free, each gate driving the next
//! wire from lower ones) an untraced `run_to_quiescence` evaluates each
//! wire once in wire order;
//! `run_budgeted` with an unlimited event budget keeps dispatching one
//! event at a time. Every case here builds the same circuit, stimulus
//! and faults twice, runs one copy each way, and asserts that the two
//! agree on every wire's value and last change, the watched waveforms
//! and their VCD text, every `EngineStats` field, `now()`, and the
//! verdict (`Ok` ↔ `Quiescent`, `StillActiveError` ↔ `SimLimit`). It
//! then schedules more stimulus on both and runs them again, so the
//! state a levelized run commits must be one the event loop can carry
//! on from.
//!
//! The random DAGs mix every levelizable kind — buffer, inverter,
//! one-shot, the six two-input kinds and the C-element — with every
//! fault hook: stuck-at pins, upsets at the same picosecond as input
//! edges, delay scales from 10% to 100× (the large ones push events
//! past the wheel horizon onto the far list). Delays are a few
//! picoseconds drawn from a small set, so equal-delay paths into XOR
//! and XNOR gates tie at one instant, pulses narrow enough to cancel
//! are common, and limits are sometimes drawn short enough to end a
//! run early. Gates are added in wire order, so every case reaches the
//! levelized pass. A bounded count runs in tier-1; `heavy-tests` runs
//! many more.

use netlist::prelude::*;
use sim_faults::{FaultPlan, FaultRates};
use sim_runtime::{Rng, SimRng};
use std::sync::Arc;

fn ps(v: u64) -> SimTime {
    SimTime::from_ps(v)
}

/// Everything the two paths must agree on.
#[derive(Debug, PartialEq, Eq)]
struct Snapshot {
    verdict: Result<u64, u64>,
    now: u64,
    stats: EngineStats,
    wires: Vec<(bool, u64)>,
    watched: Vec<Vec<(u64, bool)>>,
    vcd: String,
}

fn snapshot(sim: &NetSim, verdict: Result<u64, u64>, watched: &[WireId]) -> Snapshot {
    let named: Vec<(WireId, String)> = watched
        .iter()
        .map(|&w| (w, format!("w{}", w.index())))
        .collect();
    let named: Vec<(WireId, &str)> = named.iter().map(|(w, n)| (*w, n.as_str())).collect();
    Snapshot {
        verdict,
        now: sim.now().as_ps(),
        stats: sim.stats(),
        wires: (0..sim.netlist().n_wires())
            .map(WireId::from_index)
            .map(|w| (sim.value(w), sim.last_change_ps(w)))
            .collect(),
        watched: watched
            .iter()
            .map(|&w| sim.transitions_ps(w).to_vec())
            .collect(),
        vcd: sim.export_vcd(&named),
    }
}

/// Runs `sim` to quiescence (the levelized path where it applies).
fn levelized(sim: &mut NetSim, limit: u64, watched: &[WireId]) -> Snapshot {
    let verdict = match sim.run_to_quiescence(ps(limit)) {
        Ok(t) => Ok(t.as_ps()),
        Err(e) => Err(e.limit.as_ps()),
    };
    snapshot(sim, verdict, watched)
}

/// Runs `sim` through the event loop, one event at a time.
fn event_loop(sim: &mut NetSim, limit: u64, watched: &[WireId]) -> Snapshot {
    let verdict = match sim.run_budgeted(RunBudget::new(ps(limit), u64::MAX)) {
        Halt::Quiescent { at } => Ok(at.as_ps()),
        Halt::SimLimit { .. } => Err(limit),
        Halt::EventLimit { .. } => unreachable!("unlimited event budget"),
    };
    snapshot(sim, verdict, watched)
}

/// One random circuit with its stimulus: everything needed to build
/// two identical simulators.
struct Case {
    sealed: Arc<SealedNetlist>,
    sources: Vec<WireId>,
    watched: Vec<WireId>,
    seed: u64,
}

const KINDS: [GateKind; 10] = [
    GateKind::Buffer,
    GateKind::Inverter,
    GateKind::OneShot,
    GateKind::Or2,
    GateKind::And2,
    GateKind::Nand2,
    GateKind::Nor2,
    GateKind::Xor2,
    GateKind::Xnor2,
    GateKind::CElement,
];

/// A random levelizable DAG. Wire `k`'s driver reads only wires below
/// `k`, and the gates are added in wire order.
fn random_case(seed: u64) -> Case {
    let mut rng = SimRng::seed_from_u64(seed);
    let n_sources = rng.gen_range(1..4usize);
    let n_gates = rng.gen_range(4..40usize);
    let mut nl = Netlist::new();
    let wires: Vec<WireId> = (0..n_sources + n_gates).map(|_| nl.add_wire()).collect();
    // A small delay set makes equal-delay paths, and so same-instant
    // ties, common.
    let delays = [1u64, 2, 3, 5, 5, 8];
    let pick_delay = |rng: &mut SimRng| ps(delays[rng.gen_range(0..delays.len())]);
    // Gate `k - n_sources` drives wire `k` and reads only wires below
    // it.
    for k in n_sources..wires.len() {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let (a, b) = (rng.gen_range(0..k), rng.gen_range(0..k));
        let (rise, fall) = (pick_delay(&mut rng), pick_delay(&mut rng));
        let out = wires[k];
        let two = kind.is_two_input() || kind == GateKind::CElement;
        if two && a == b {
            nl.add_buffer(wires[a], out, rise, fall);
            continue;
        }
        match kind {
            GateKind::Buffer => nl.add_buffer(wires[a], out, rise, fall),
            GateKind::Inverter => nl.add_inverter(wires[a], out, rise, fall),
            GateKind::OneShot => nl.add_one_shot(wires[a], out, rise, fall),
            GateKind::CElement => nl.add_c_element(wires[a], wires[b], out, rise),
            kind => nl.add_gate2(kind, wires[a], wires[b], out, rise, fall),
        };
    }
    let sealed = Arc::new(nl.seal());
    assert!(
        sealed.is_levelizable(),
        "seed {seed}: an in-order DAG must be levelizable"
    );
    let mut watched: Vec<WireId> = wires
        .iter()
        .copied()
        .filter(|_| rng.gen_bool(0.3))
        .collect();
    watched.push(*wires.last().expect("gates exist"));
    watched.dedup();
    Case {
        sealed,
        sources: wires[..n_sources].to_vec(),
        watched,
        seed,
    }
}

/// Builds one simulator of `case`: watches, faults and a first round
/// of stimulus, all drawn from the case seed (so two calls agree).
/// Returns the simulator and a limit for the first run.
fn build(case: &Case) -> (NetSim, u64) {
    let mut rng = SimRng::seed_from_u64(case.seed ^ 0x5eed);
    let mut sim = NetSim::new(Arc::clone(&case.sealed));
    for &w in &case.watched {
        sim.watch(w);
    }
    let n_wires = case.sealed.n_wires();
    let horizon = 60u64;
    // Faults: pins, upsets (some at the very picosecond of an input
    // edge), delay scales including ones far past the wheel horizon.
    let mut edge_times = Vec::new();
    for &src in &case.sources {
        let mut t = rng.gen_range(0..6u64);
        let mut v = false;
        for _ in 0..rng.gen_range(1..7usize) {
            t += rng.gen_range(0..12u64);
            v = !v;
            sim.schedule_input(src, ps(t), v);
            edge_times.push(t);
        }
    }
    for w in (0..n_wires).map(WireId::from_index) {
        match rng.gen_range(0..40u32) {
            0 => sim.pin_wire(w, rng.gen_bool(0.5)),
            1 | 2 => {
                let t = if rng.gen_bool(0.5) && !edge_times.is_empty() {
                    edge_times[rng.gen_range(0..edge_times.len())]
                } else {
                    rng.gen_range(0..horizon)
                };
                sim.schedule_upset(w, ps(t));
            }
            3 => sim.scale_wire_delay(
                w,
                [10, 50, 150, 400, 5_000, 10_000][rng.gen_range(0..6usize)],
            ),
            _ => {}
        }
    }
    let limit = if rng.gen_bool(0.2) {
        rng.gen_range(1..horizon)
    } else {
        100_000
    };
    (sim, limit)
}

/// A second round of stimulus, after either run.
fn more_stimulus(case: &Case, sim: &mut NetSim) {
    let mut rng = SimRng::seed_from_u64(case.seed ^ 0x0a11);
    let now = sim.now().as_ps();
    for &src in &case.sources {
        let mut t = now + rng.gen_range(0..4u64);
        for _ in 0..rng.gen_range(0..4usize) {
            t += rng.gen_range(0..10u64);
            sim.schedule_input(src, ps(t), !sim.value(src) ^ rng.gen_bool(0.3));
        }
    }
    if rng.gen_bool(0.3) {
        let w = WireId::from_index(rng.gen_range(0..case.sealed.n_wires()));
        sim.schedule_upset(w, ps(now + rng.gen_range(0..20u64)));
    }
}

fn check_case(seed: u64) {
    let case = random_case(seed);
    let (mut lev, limit) = build(&case);
    let (mut ev, _) = build(&case);
    let a = levelized(&mut lev, limit, &case.watched);
    let b = event_loop(&mut ev, limit, &case.watched);
    assert_eq!(a, b, "seed {seed}: first run diverged");
    more_stimulus(&case, &mut lev);
    more_stimulus(&case, &mut ev);
    let a = levelized(&mut lev, 1_000_000, &case.watched);
    let b = event_loop(&mut ev, 1_000_000, &case.watched);
    assert_eq!(a, b, "seed {seed}: second run diverged");
}

#[test]
fn random_dags_match_the_event_loop() {
    let count = if cfg!(feature = "heavy-tests") {
        50_000
    } else {
        2_000
    };
    for seed in 0..count {
        check_case(seed);
    }
}

/// XOR and XNOR gates fed by two equal-delay paths from one source:
/// both inputs change at the same picosecond with the same push time,
/// the tie the dispatch key cannot order.
#[test]
fn equal_delay_xor_ties_match_the_event_loop() {
    for (kind, d1, d2) in [
        (GateKind::Xor2, 5, 5),
        (GateKind::Xnor2, 5, 5),
        (GateKind::Xor2, 3, 7),
        (GateKind::Or2, 4, 4),
        (GateKind::Nand2, 4, 4),
    ] {
        let build = || {
            let mut nl = Netlist::new();
            let (src, p, q, out, tail) = (
                nl.add_wire(),
                nl.add_wire(),
                nl.add_wire(),
                nl.add_wire(),
                nl.add_wire(),
            );
            nl.add_buffer(src, p, ps(d1), ps(d1));
            nl.add_inverter(src, q, ps(d2), ps(d2));
            nl.add_gate2(kind, p, q, out, ps(2), ps(3));
            nl.add_buffer(out, tail, ps(1), ps(1));
            let mut sim = NetSim::from_netlist(nl);
            sim.watch(out);
            sim.watch(tail);
            for (k, t) in [10u64, 12, 13, 30, 31, 50].into_iter().enumerate() {
                sim.schedule_input(src, ps(t), k % 2 == 0);
            }
            (sim, vec![out, tail])
        };
        let (mut lev, watched) = build();
        let (mut ev, _) = build();
        assert_eq!(
            levelized(&mut lev, 10_000, &watched),
            event_loop(&mut ev, 10_000, &watched),
            "{kind:?} {d1}/{d2}"
        );
    }
}

/// A limit that ends mid-run: `StillActiveError` with exactly the
/// event loop's state, then a second run that finishes.
#[test]
fn limits_that_end_mid_run_leave_the_event_loop_state() {
    let build = || {
        let mut nl = Netlist::new();
        let w: Vec<WireId> = (0..6).map(|_| nl.add_wire()).collect();
        for p in w.windows(2) {
            nl.add_inverter(p[0], p[1], ps(100), ps(90));
        }
        let mut sim = NetSim::from_netlist(nl);
        sim.watch(w[5]);
        sim.schedule_clock(w[0], ps(10), ps(1_000), ps(500), 3);
        (sim, vec![w[5]])
    };
    for limit in [5, 250, 1_200, 2_700] {
        let (mut lev, watched) = build();
        let (mut ev, _) = build();
        let a = levelized(&mut lev, limit, &watched);
        assert!(a.verdict.is_err(), "limit {limit} must cut the run");
        assert_eq!(a, event_loop(&mut ev, limit, &watched), "limit {limit}");
        assert_eq!(
            levelized(&mut lev, 100_000, &watched),
            event_loop(&mut ev, 100_000, &watched),
            "limit {limit}, resumed"
        );
    }
}

/// Every fault-word kind through the batch injection path on a mesh,
/// at a rate high enough to hit each many times.
#[test]
fn fault_words_on_a_mesh_match_the_event_loop() {
    let mesh = MeshSpec::square(30, 5).build();
    for (seed, rate) in [(1u64, 0.0), (2, 0.01), (3, 0.05), (4, 0.2)] {
        let plan = if rate == 0.0 {
            FaultPlan::disabled()
        } else {
            FaultPlan::new(seed, 0, FaultRates::uniform(rate))
        };
        let words = gate_fault_words(&plan, mesh.sealed());
        let build = || {
            let mut sim = NetSim::new(Arc::clone(mesh.sealed()));
            let _ = inject_fault_words(&mut sim, &words, mesh.settle_limit());
            sim.schedule_input(mesh.input(), ps(10), true);
            sim.watch(mesh.cell(29, 29));
            sim
        };
        let watched = [mesh.cell(29, 29)];
        let (mut lev, mut ev) = (build(), build());
        let limit = mesh.settle_limit().as_ps();
        assert_eq!(
            levelized(&mut lev, limit, &watched),
            event_loop(&mut ev, limit, &watched),
            "rate {rate}"
        );
    }
}

/// Feedback circuits are not levelizable, so they always keep the
/// event loop; registers keep it too.
#[test]
fn cyclic_circuits_are_not_levelizable() {
    let mut nl = Netlist::new();
    let _ = add_stoppable_clock(&mut nl, 2, ps(40), ps(30));
    assert!(!nl.seal().is_levelizable(), "stoppable clock");
    // A three-stage Muller pipeline: each C-element waits on its
    // successor's inverted output, and the source inverts stage 1.
    let mut nl = Netlist::new();
    let s: Vec<WireId> = (0..4).map(|_| nl.add_wire()).collect();
    for i in 1..4 {
        let ack = nl.add_wire();
        nl.add_inverter(s[(i + 1).min(3)], ack, ps(20), ps(20));
        nl.add_c_element(s[i - 1], ack, s[i], ps(50));
    }
    nl.add_inverter(s[1], s[0], ps(20), ps(20));
    assert!(!nl.seal().is_levelizable(), "Muller pipeline");
    let mut nl = Netlist::new();
    let (d, clk, q) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
    nl.add_register(d, clk, q, ps(10), ps(10), ps(5));
    assert!(!nl.seal().is_levelizable(), "registers keep the event loop");
    let mut nl = Netlist::new();
    let (a, b) = (nl.add_wire(), nl.add_wire());
    nl.add_inverter(a, b, ps(1), ps(1));
    assert!(nl.seal().is_levelizable(), "an inverter is");
}
