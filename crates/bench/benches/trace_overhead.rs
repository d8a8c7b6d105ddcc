//! Tracing overhead guard: the E6 event loop with tracing disabled
//! must cost the same as before the trace layer existed (the disabled
//! path is one branch on an `Option`, no allocation, no atomics), and
//! the enabled path's cost should stay within a small multiple.

use bench::timing::{bench, group};
use netlist::prelude::*;

fn spec(stages: usize) -> InverterStringSpec {
    InverterStringSpec {
        stages,
        base_delay: SimTime::from_ps(1_000),
        bias_ps: 50,
        discrepancy_std_ps: 10.0,
        seed: 1,
    }
}

fn main() {
    group("e6_waveform_untraced");
    for stages in [256usize, 1024] {
        let chip = InverterString::fabricate(spec(stages));
        let period = chip.min_pipelined_period(6);
        bench(&format!("e6_waveform_untraced/{stages}"), || {
            let (sim, taps) = chip.waveform(period * 2, 6, 4, None);
            (sim.now(), taps.len())
        });
    }

    group("e6_waveform_traced");
    for stages in [256usize, 1024] {
        let chip = InverterString::fabricate(spec(stages));
        let period = chip.min_pipelined_period(6);
        bench(&format!("e6_waveform_traced/{stages}"), || {
            let (mut sim, taps) = chip.waveform(period * 2, 6, 4, Some(1 << 16));
            let events = sim.take_trace().map_or(0, |b| b.len());
            (sim.now(), taps.len(), events)
        });
    }
}
