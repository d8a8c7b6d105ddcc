//! Gate-level synchronization, end to end: a Muller self-timed
//! pipeline, a stoppable ring-oscillator clock, and the two-element
//! hybrid handshake — with a VCD waveform dump you can open in any
//! wave viewer.
//!
//! ```sh
//! cargo run --example gate_level_sync        # prints a summary
//! cargo run --example gate_level_sync -- dump  # also writes waves.vcd
//! ```

use vlsi_sync_repro::prelude::*;

fn main() {
    // --- 1. self-timed FIFO: tokens at a length-independent rate ----
    let short = MullerPipeline::new(8, SimTime::from_ps(100), SimTime::from_ps(50))
        .run(SimTime::from_ps(200_000));
    let long = MullerPipeline::new(64, SimTime::from_ps(100), SimTime::from_ps(50))
        .run(SimTime::from_ps(200_000));
    println!("Muller pipeline (gate level):");
    println!(
        "  8 stages: {} tokens, period {} | 64 stages: {} tokens, period {}",
        short.tokens_delivered, short.period, long.tokens_delivered, long.period
    );
    println!("  -> throughput independent of length; first arrival {} vs {}", short.first_arrival, long.first_arrival);

    // --- 2. stoppable clock: the hybrid element's local oscillator --
    let mut nl = Netlist::new();
    let clock = add_stoppable_clock(&mut nl, 2, SimTime::from_ps(50), SimTime::from_ps(80));
    let mut sim = NetSim::from_netlist(nl);
    sim.watch(clock.clk);
    sim.schedule_input(clock.enable, SimTime::from_ps(500), true);
    sim.schedule_input(clock.enable, SimTime::from_ps(5_000), false);
    sim.schedule_input(clock.enable, SimTime::from_ps(8_000), true);
    sim.run_until(SimTime::from_ps(12_000));
    let ticks = sim.transitions_ps(clock.clk).len();
    println!("\nstoppable clock: {ticks} edges over an enable/park/resume cycle (period {})", clock.period);

    if std::env::args().any(|a| a == "dump") {
        let vcd = sim.export_vcd(&[(clock.enable, "enable"), (clock.clk, "clk")]);
        std::fs::write("waves.vcd", &vcd).expect("write waves.vcd");
        println!("  wrote waves.vcd ({} bytes)", vcd.len());
    }

    // --- 3. the hybrid handshake in gates ---------------------------
    let pair = ElementPair::new(2, SimTime::from_ps(50), SimTime::from_ps(80));
    let run = pair.run(SimTime::from_ps(200_000));
    println!("\ntwo-element hybrid handshake (XNOR/XOR sync network):");
    println!(
        "  A ticked {} times, B {} times, alternating, cycle {} ps, violations: {}",
        run.ticks_a, run.ticks_b, run.period_ps, run.violations
    );
    println!("\n\"an element stops its clock synchronously and has its clock started");
    println!(" asynchronously\" — Section VI, as gates.");
}
