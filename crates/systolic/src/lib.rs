//! Ideally synchronized systolic arrays and their execution under
//! clock skew.
//!
//! This crate provides the *processor array* half of the Fisher–Kung
//! reproduction: the lock-step semantics that assumption A1 grants an
//! ideally synchronized array, classic systolic algorithms to run on
//! it, and a skew-aware executor that shows what happens when the
//! clocking assumptions are violated.
//!
//! * [`exec`] — lock-step execution over a communication graph;
//! * [`algorithms`] — FIR filtering, matrix–vector, mesh and
//!   hexagonal matrix multiply, odd–even sort, and the Bentley–Kung
//!   tree machine;
//! * [`timing`] — setup/hold analysis per communication edge, the
//!   minimum safe period (the concrete σ + δ + τ of A5), and a
//!   fault-injecting executor;
//! * [`throughput`] — Section I's `1 − p^k` self-timing analysis.
//!
//! # Example: skew corrupts a computation, zero skew does not
//!
//! ```
//! use systolic::prelude::*;
//!
//! // A 4-tap filter over a short signal, under an ideal clock.
//! let weights = [1, -2, 3, 1];
//! let xs = [5, 1, 4, 2, 8, 3];
//! assert_eq!(
//!     SystolicFir::convolve(&weights, &xs),
//!     SystolicFir::reference(&weights, &xs),
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algorithms;
pub mod exec;
pub mod throughput;
pub mod timing;

/// Convenient re-exports of the crate's primary items.
pub mod prelude {
    pub use crate::algorithms::fir::SystolicFir;
    pub use crate::algorithms::hex_matmul::HexMatMul;
    pub use crate::algorithms::matmul::SystolicMatMul;
    pub use crate::algorithms::matvec::SystolicMatVec;
    pub use crate::algorithms::sort::OddEvenSorter;
    pub use crate::algorithms::tree_machine::TreeSearchMachine;
    pub use crate::exec::{in_port_from, out_port_to, ArrayAlgorithm, IdealExecutor, Item};
    pub use crate::throughput::{PipelineModel, ThroughputSample};
    pub use crate::timing::{
        classify_edges, min_safe_period, CellTiming, ClockSchedule, HoldRaceError,
        SkewedExecutor, TransferStatus, CORRUPTION_MASK,
    };
}
