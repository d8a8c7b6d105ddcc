//! A deterministic discrete-event digital-circuit simulator.
//!
//! Built as the experimental substrate for reproducing Section VII of
//! Fisher & Kung, *Synchronizing Large VLSI Processor Arrays* (1983):
//! the 2048-inverter pipelined-clocking trial. The paper ran the
//! experiment on a physical nMOS chip; this crate substitutes a
//! gate-level simulation that models the same mechanisms —
//! distance-proportional propagation, asymmetric rise/fall delays,
//! pulse swallowing (inertial delay), and register setup/hold
//! violations.
//!
//! * [`time`] — integer picosecond simulation time;
//! * [`engine`] — nets, gates, registers, and the event loop;
//! * [`inverter_string`] — the Section VII experiment harness:
//!   equipotential vs pipelined clocking of a long inverter string.
//!
//! # Example: skew causes synchronization failure
//!
//! ```
//! use desim::prelude::*;
//!
//! let mut sim = Simulator::new();
//! let (d, clk, q) = (sim.add_net(), sim.add_net(), sim.add_net());
//! sim.add_register(d, clk, q,
//!     SimTime::from_ps(100), SimTime::from_ps(100), SimTime::from_ps(20));
//! // Data arrives 30 ps before the clock edge: setup violated.
//! sim.schedule_input(d, SimTime::from_ps(470), true);
//! sim.schedule_input(clk, SimTime::from_ps(500), true);
//! sim.run_until(SimTime::from_ns(1));
//! assert_eq!(sim.violations().len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chain;
pub mod clocked_chain;
pub mod engine;
pub mod faults;
pub mod inverter_string;
pub mod muller;
pub mod one_shot_string;
pub mod stoppable_clock;
pub mod vcd;
pub mod time;

/// Convenient re-exports of the crate's primary items.
pub mod prelude {
    pub use crate::chain::{build_chain, ChainSink, ChainStage};
    pub use crate::clocked_chain::{analytic_min_period, run_chain, ChainOutcome, ClockedChainSpec};
    pub use crate::engine::{
        EngineStats, GateFn, Halt, NetId, RunBudget, Simulator, StillActiveError,
        TimingViolation, ViolationKind,
    };
    pub use crate::faults::{classify_run, inject_net_faults};
    pub use crate::inverter_string::{
        fabrication_yield, fabrication_yield_par, InverterString, InverterStringResult,
        InverterStringSpec,
    };
    pub use crate::muller::{MullerPipeline, MullerRun};
    pub use crate::one_shot_string::{OneShotString, OneShotStringSpec};
    pub use crate::time::{SimTime, TimeOverflowError};
    pub use crate::stoppable_clock::{add_stoppable_clock, StoppableClock};
    pub use crate::vcd::{export_vcd, VcdWriter};
}
