//! `netlist`: the flat netlist core — million-gate simulation as the
//! workspace's hot path.
//!
//! The reference engine ([`desim`]) models rich components (registers
//! with setup/hold checking, C-elements) behind per-net structs and a
//! boxed-event binary heap. That is the right tool for semantic
//! experiments at thousands of gates; it is the wrong memory layout
//! for the paper's actual subject — *large* arrays, where the
//! question is how timing uncertainty scales to a million gates. This
//! crate is the large-scale counterpart:
//!
//! * [`Netlist`] / [`SealedNetlist`] — arena-allocated gates (one
//!   packed record each, read only on cold paths) and wires addressed
//!   by `u32` indices, fanout as a CSR table of self-contained 8-byte
//!   `(output, other input)` entries ([`arena`]);
//! * [`NetSim`] — the event engine: calendar-wheel scheduler
//!   exploiting the bounded `m ± ε` delay model, singleton buckets
//!   stored inline (`wheel`), settling by a direct walk of the
//!   changed wire's CSR row, each wire's state — including its
//!   driver's kind and delays — one packed record ([`engine`]);
//! * [`faults`] — [`sim_faults::FaultPlan`] compiled to packed
//!   per-gate fault words, applied in one batch pass;
//! * [`mesh`] — the 2-D wavefront mesh builder (1000×1000 fault
//!   sweeps);
//! * [`mirror`] — 1:1 instantiation of an arena inside the reference
//!   engine, for the differential equivalence suite.
//!
//! Semantics (inertial cancellation, generation-counted dead events,
//! stuck/delay/upset fault hooks, [`desim::engine::EngineStats`]
//! counters) mirror the reference engine exactly: on any circuit both
//! cores support, they produce byte-identical deterministic reports.
//! Use `desim` when the circuit needs registers or timing-violation
//! detection; use this crate when the circuit is large and built from
//! propagation primitives.
//!
//! Shared topology: circuit builders describe chains as
//! [`desim::chain::ChainStage`] lists, and both [`Netlist`] and the
//! reference simulator implement [`desim::chain::ChainSink`], so one
//! description constructs identical circuits in either core.
//!
//! # Examples
//!
//! ```
//! use netlist::prelude::*;
//! use desim::time::SimTime;
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

pub mod arena;
pub mod engine;
pub mod faults;
pub mod mesh;
pub mod mirror;
mod wheel;

pub use arena::{GateId, GateKind, Netlist, SealedNetlist, WireId};
pub use engine::NetSim;

/// The crate's commonly used types.
pub mod prelude {
    pub use crate::arena::{GateId, GateKind, Netlist, SealedNetlist, WireId};
    pub use crate::engine::NetSim;
    pub use crate::faults::{gate_fault_words, inject_fault_words, FaultWord, InjectionSummary};
    pub use crate::mesh::{Mesh, MeshSpec, WaveOutcome};
    pub use crate::mirror::{mirror_into_desim, net_of};
}
