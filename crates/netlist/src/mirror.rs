//! Reference-engine mirror: instantiate a sealed arena 1:1 inside a
//! legacy [`desim::Simulator`].
//!
//! The differential suite's workhorse. Wires become nets in index
//! order (so `WireId(k)` ↔ the `k`-th `NetId`) and gates are added in
//! arena order, which makes the reference engine's per-net sink lists
//! equal the arena's CSR fanout rows. Driving both engines with the
//! same stimuli must then produce identical waveforms, counters, and
//! report bytes — any divergence is an engine bug, not a topology
//! artifact.

use crate::arena::{GateKind, SealedNetlist, WireId, NONE};
use desim::engine::{GateFn, NetId, Simulator};
use desim::time::SimTime;

/// Builds a reference simulator equivalent to the arena. Returns the
/// simulator and the wire → net map (`map[w.index()]`).
#[must_use]
pub fn mirror_into_desim(nl: &SealedNetlist) -> (Simulator, Vec<NetId>) {
    let mut sim = Simulator::new();
    let map: Vec<NetId> = (0..nl.n_wires()).map(|_| sim.add_net()).collect();
    for g in &nl.gates {
        let a = map[g.in_a as usize];
        let out = map[g.out as usize];
        let rise = SimTime::from_ps(u64::from(g.d_rise));
        let fall = SimTime::from_ps(u64::from(g.d_fall));
        match g.kind {
            GateKind::Buffer => sim.add_buffer(a, out, rise, fall),
            GateKind::Inverter => sim.add_inverter(a, out, rise, fall),
            GateKind::Or2 | GateKind::And2 => {
                let func = if g.kind == GateKind::Or2 {
                    GateFn::Or
                } else {
                    GateFn::And
                };
                debug_assert_ne!(g.in_b, NONE);
                let b = map[g.in_b as usize];
                sim.add_gate2(func, a, b, out, rise, fall);
            }
            GateKind::OneShot => sim.add_one_shot(a, out, rise, fall),
        }
    }
    (sim, map)
}

/// The net mirroring `wire` given the map from [`mirror_into_desim`].
#[must_use]
pub fn net_of(map: &[NetId], wire: WireId) -> NetId {
    map[wire.index()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NetSim;
    use crate::Netlist;
    use std::sync::Arc;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    /// Drives the same stimulus into both engines and checks wire
    /// values, watched transitions, and the full counter set.
    fn assert_equivalent(
        nl: Netlist,
        watched: &[WireId],
        stimuli: &[(WireId, u64, bool)],
        limit_ps: u64,
    ) {
        let sealed = Arc::new(nl.seal());
        let mut fast = NetSim::new(Arc::clone(&sealed));
        let (mut slow, map) = mirror_into_desim(&sealed);
        for &w in watched {
            fast.watch(w);
            slow.watch(net_of(&map, w));
        }
        for &(w, t, v) in stimuli {
            fast.schedule_input(w, ps(t), v);
            slow.schedule_input(net_of(&map, w), ps(t), v);
        }
        fast.run_until(ps(limit_ps));
        slow.run_until(ps(limit_ps));
        assert_eq!(fast.now(), slow.now());
        for k in 0..sealed.n_wires() {
            let w = WireId(k as u32);
            assert_eq!(
                fast.value(w),
                slow.value(net_of(&map, w)),
                "wire {w} differs"
            );
        }
        for &w in watched {
            assert_eq!(
                fast.transitions(w),
                slow.transitions(net_of(&map, w)).to_vec(),
                "transitions of {w} differ"
            );
        }
        assert_eq!(fast.stats(), slow.stats(), "engine counters differ");
    }

    #[test]
    fn inverter_chain_with_swallowed_pulse_matches() {
        let mut nl = Netlist::new();
        let mut wires = vec![nl.add_wire()];
        for i in 0..5 {
            let next = nl.add_wire();
            nl.add_inverter(wires[i], next, ps(100), ps(140));
            wires.push(next);
        }
        let a = wires[0];
        let last = *wires.last().unwrap();
        // Includes a pulse narrower than the inertial window.
        assert_equivalent(
            nl,
            &[a, last],
            &[(a, 300, true), (a, 900, false), (a, 950, true)],
            5_000,
        );
    }

    #[test]
    fn or_and_network_matches() {
        let mut nl = Netlist::new();
        let a = nl.add_wire();
        let b = nl.add_wire();
        let or_out = nl.add_wire();
        let and_out = nl.add_wire();
        let top = nl.add_wire();
        nl.add_or2(a, b, or_out, ps(80), ps(60));
        nl.add_and2(a, b, and_out, ps(50), ps(50));
        nl.add_and2(or_out, and_out, top, ps(30), ps(40));
        assert_equivalent(
            nl,
            &[or_out, and_out, top],
            &[
                (a, 100, true),
                (b, 400, true),
                (a, 700, false),
                (b, 1_000, false),
            ],
            5_000,
        );
    }

    #[test]
    fn one_shot_pulse_train_matches() {
        let mut nl = Netlist::new();
        let trig = nl.add_wire();
        let pulse = nl.add_wire();
        let shaped = nl.add_wire();
        nl.add_one_shot(trig, pulse, ps(40), ps(200));
        nl.add_buffer(pulse, shaped, ps(10), ps(10));
        assert_equivalent(
            nl,
            &[pulse, shaped],
            &[
                (trig, 100, true),
                (trig, 150, false),
                (trig, 1_000, true),
                (trig, 1_100, false),
            ],
            5_000,
        );
    }

    #[test]
    fn faults_match_across_engines() {
        let mut nl = Netlist::new();
        let mut wires = vec![nl.add_wire()];
        for i in 0..6 {
            let next = nl.add_wire();
            nl.add_buffer(wires[i], next, ps(70), ps(70));
            wires.push(next);
        }
        let sealed = Arc::new(nl.seal());
        let mut fast = NetSim::new(Arc::clone(&sealed));
        let (mut slow, map) = mirror_into_desim(&sealed);
        let (src, mid, tail, last) = (wires[0], wires[2], wires[4], wires[6]);
        for &w in &[mid, last] {
            fast.watch(w);
            slow.watch(net_of(&map, w));
        }
        // A delay fault, a stuck-at pin, and an SEU upset.
        fast.scale_wire_delay(mid, 300);
        slow.scale_net_delay(net_of(&map, mid), 300);
        fast.pin_wire(tail, true);
        slow.pin_net(net_of(&map, tail), true);
        fast.schedule_upset(last, ps(50));
        slow.schedule_upset(net_of(&map, last), ps(50));
        fast.schedule_input(src, ps(100), true);
        slow.schedule_input(net_of(&map, src), ps(100), true);
        fast.run_until(ps(3_000));
        slow.run_until(ps(3_000));
        assert_eq!(fast.transitions(mid), slow.transitions(net_of(&map, mid)));
        assert_eq!(fast.transitions(last), slow.transitions(net_of(&map, last)));
        assert_eq!(fast.stats(), slow.stats());
        for (k, &n) in map.iter().enumerate() {
            assert_eq!(fast.value(WireId(k as u32)), slow.value(n), "wire {k}");
        }
    }
}
