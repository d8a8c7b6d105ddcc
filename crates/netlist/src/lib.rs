//! `netlist`: the workspace's one gate-level simulation engine.
//!
//! The paper's subject is *large* arrays — how timing uncertainty and
//! faults scale to a million gates — and its Section VII experiment
//! reduces to delays adding up along a gate string. This crate
//! simulates both ends of that range on one engine: the 2048-stage
//! chip and the Fig. 8 element pair as much as the 1M-stage string and
//! the 1000×1000 mesh.
//!
//! * [`time`] — integer picosecond simulation time ([`SimTime`]);
//! * [`Netlist`] / [`SealedNetlist`] — arena-allocated gates (one
//!   packed record each, read only on cold paths; registers keep their
//!   setup/hold windows in a side table) and wires addressed by `u32`
//!   indices, fanout as a CSR table of self-contained 8-byte
//!   `(output, other input)` entries ([`arena`]). Gate kinds: buffer,
//!   inverter, one-shot, OR/AND/NAND/NOR/XOR/XNOR, Muller C-element
//!   and edge-triggered register ([`GateKind`]);
//! * [`NetSim`] — the event engine: calendar-wheel scheduler
//!   exploiting the bounded `m ± ε` delay model, singleton buckets
//!   stored inline, settling by a direct walk of the changed wire's
//!   CSR row, each wire's state — including its driver's kind and
//!   delays — one packed record; inertial cancellation, setup/hold
//!   checking, stuck/delay/upset fault hooks, a watchdog run loop and
//!   [`EngineStats`] counters ([`engine`]);
//! * [`faults`] — [`sim_faults::FaultPlan`]s applied per wire or
//!   compiled to packed per-gate fault words, and run-outcome
//!   classification;
//! * the experiment harnesses: [`inverter_string`] (the Section VII
//!   chip and its yield analysis), [`one_shot_string`] (the paper's
//!   one-shot fix), [`clocked_chain`] (A5 in registers),
//!   [`muller`] (a self-timed C-element FIFO), [`stoppable_clock`]
//!   (the hybrid element's gated ring oscillator) and [`mesh`] (the
//!   2-D wavefront mesh for million-cell fault sweeps).
//!
//! # Examples
//!
//! ```
//! use netlist::prelude::*;
//!
//! let mut nl = Netlist::new();
//! let a = nl.add_wire();
//! let b = nl.add_wire();
//! nl.add_inverter(a, b, SimTime::from_ps(100), SimTime::from_ps(120));
//! let mut sim = NetSim::from_netlist(nl);
//! sim.watch(b);
//! sim.schedule_input(a, SimTime::from_ps(50), true);
//! sim.run_until(SimTime::from_ps(1_000));
//! assert!(!sim.value(b));
//! assert_eq!(sim.transitions_ps(b), &[(170, false)]);
//! ```
//!
//! Skew causes synchronization failure:
//!
//! ```
//! use netlist::prelude::*;
//!
//! let mut nl = Netlist::new();
//! let (d, clk, q) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
//! nl.add_register(d, clk, q,
//!     SimTime::from_ps(100), SimTime::from_ps(100), SimTime::from_ps(20));
//! let mut sim = NetSim::from_netlist(nl);
//! // Data arrives 30 ps before the clock edge: setup violated.
//! sim.schedule_input(d, SimTime::from_ps(470), true);
//! sim.schedule_input(clk, SimTime::from_ps(500), true);
//! sim.run_until(SimTime::from_ns(1));
//! assert_eq!(sim.violations().len(), 1);
//! ```

pub mod arena;
pub mod clocked_chain;
pub mod engine;
pub mod faults;
pub mod inverter_string;
pub mod mesh;
pub mod muller;
pub mod one_shot_string;
pub mod stoppable_clock;
pub mod time;
mod wheel;

pub use arena::{GateId, GateKind, Netlist, SealedNetlist, WireId};
pub use engine::{
    EngineStats, Halt, NetSim, RunBudget, StillActiveError, TimingViolation, ViolationKind,
};
pub use time::SimTime;

/// The crate's commonly used types.
pub mod prelude {
    pub use crate::arena::{GateId, GateKind, Netlist, SealedNetlist, WireId};
    pub use crate::clocked_chain::{analytic_min_period, run_chain, ChainOutcome, ClockedChainSpec};
    pub use crate::engine::{
        EngineStats, Halt, NetSim, RunBudget, StillActiveError, TimingViolation, ViolationKind,
    };
    pub use crate::faults::{
        classify_run, gate_fault_words, inject_fault_words, inject_wire_faults, FaultWord,
        InjectionSummary,
    };
    pub use crate::inverter_string::{
        fabrication_yield, fabrication_yield_par, InverterString, InverterStringResult,
        InverterStringSpec,
    };
    pub use crate::mesh::{Mesh, MeshSpec, WaveOutcome};
    pub use crate::muller::{MullerPipeline, MullerRun};
    pub use crate::one_shot_string::{OneShotString, OneShotStringSpec};
    pub use crate::stoppable_clock::{add_stoppable_clock, StoppableClock};
    pub use crate::time::{SimTime, TimeOp, TimeOverflowError};
}
