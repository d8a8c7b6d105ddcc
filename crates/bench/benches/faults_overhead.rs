//! Fault-layer overhead guard: with a disabled [`FaultPlan`] every
//! hook — `inject_wire_faults`, `with_buffer_faults`, the lossy
//! handshake/hybrid runs — must cost one branch on `is_enabled()`
//! over the fault-free code path: no site hashing, no RNG
//! construction, no tree clone beyond what the API returns.
//! The enabled path is measured alongside for scale.

use array_layout::prelude::*;
use bench::timing::{bench, group};
use clock_tree::prelude::*;
use netlist::prelude::*;
use selftimed::prelude::*;
use sim_faults::{FaultPlan, FaultRates, RetryPolicy};

fn chain(n: usize) -> (NetSim, Vec<WireId>) {
    let mut nl = Netlist::new();
    let wires: Vec<WireId> = (0..n).map(|_| nl.add_wire()).collect();
    for w in wires.windows(2) {
        nl.add_inverter(w[0], w[1], SimTime::from_ps(100), SimTime::from_ps(100));
    }
    (NetSim::from_netlist(nl), wires)
}

fn main() {
    let disabled = FaultPlan::disabled();
    let enabled = FaultPlan::new(1, 0, FaultRates::uniform(0.05));
    let policy = RetryPolicy::new(3, 5.0);
    let link = HandshakeLink::new(1.0, 0.5, Protocol::TwoPhase);

    group("engine_injection");
    for (label, plan) in [("disabled", &disabled), ("enabled", &enabled)] {
        bench(&format!("inject_wire_faults/1024/{label}"), || {
            let (mut sim, wires) = chain(1024);
            let injected = inject_wire_faults(&mut sim, plan, &wires, SimTime::from_ps(10_000));
            sim.schedule_input(wires[0], SimTime::from_ps(100), true);
            let halt = sim.run_budgeted(RunBudget::new(SimTime::from_ps(10_000_000), 1 << 20));
            (injected, matches!(halt, Halt::Quiescent { .. }))
        });
    }

    group("clock_tree_buffer_faults");
    let comm = CommGraph::linear(256);
    let layout = Layout::comb(&comm, 16);
    let tree = htree(&comm, &layout).equalized();
    for (label, plan) in [("disabled", &disabled), ("enabled", &enabled)] {
        bench(&format!("with_buffer_faults/256/{label}"), || {
            let report = tree.with_buffer_faults(plan, 1.0);
            (report.dead_cells.len(), report.degraded_buffers)
        });
    }

    group("handshake_chain");
    let hs = HandshakeChain::new(256, link, 1.0);
    bench("chain_run/256/clean", || hs.run(16, None, None).period);
    for (label, plan) in [("disabled", &disabled), ("enabled", &enabled)] {
        bench(&format!("chain_run_faulty/256/{label}"), || {
            let run = hs.run(16, Some((plan, policy)), None);
            (run.outcome, run.drops)
        });
    }

    group("hybrid_array");
    let hybrid = HybridArray::over_mesh(16, HybridParams::new(4, 2.0, 1.0, 0.1, link));
    for (label, plan) in [("disabled", &disabled), ("enabled", &enabled)] {
        bench(&format!("simulate_period_faulty/16x16/{label}"), || {
            hybrid.simulate_period_faulty(12, plan, policy)
        });
    }
}
