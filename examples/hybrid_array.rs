//! The Section VI hybrid scheme end to end: clocked elements, a
//! handshake network between their clock nodes, constant cycle time
//! at any array size, and no metastability.
//!
//! ```sh
//! cargo run --example hybrid_array
//! ```

use vlsi_sync_repro::prelude::*;

fn main() {
    let link = HandshakeLink::new(1.0, 0.5, Protocol::TwoPhase);
    let params = HybridParams::new(4, 2.0, 1.0, 0.1, link);

    println!("hybrid scheme: 4x4-cell elements, two-phase handshake between clock nodes\n");
    println!(
        "{:>8} {:>10} {:>14} {:>16} {:>20}",
        "n", "elements", "local skew", "analytic cycle", "simulated (jitter)"
    );
    for n in [16usize, 64, 256, 1024] {
        let h = HybridArray::over_mesh(n, params);
        println!(
            "{n:>8} {:>10} {:>14.2} {:>16.2} {:>20.2}",
            h.element_count(),
            h.local_skew(),
            h.cycle_time(),
            h.simulate_period(120, 0.3, 7)
        );
    }

    // Stoppable clocks cannot go metastable; free-running samplers can.
    let meta = MetastabilityModel::new(0.05, 0.5);
    let sweep = sim_runtime::ParallelSweep::new(1);
    let naive = meta.count_naive_failures_par(500_000, 10.0, 1, &sweep);
    println!();
    println!(
        "metastable captures in 500k transfers: naive synchronizer {naive}, stoppable clock {}",
        meta.count_stoppable_clock_failures(500_000)
    );
    println!(
        "per-event failure probability with 1.0 settle slack: {:.2e}",
        meta.failure_probability(10.0, 1.0)
    );
    println!("\n\"an element stops its clock synchronously and has its clock started");
    println!(" asynchronously\" — Section VI.");
}
