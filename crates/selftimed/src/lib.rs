//! Self-timed and hybrid synchronization for VLSI processor arrays.
//!
//! Implements the alternatives to global clocking that Fisher & Kung
//! (1983) analyse:
//!
//! * [`handshake`] — request/acknowledge links and self-timed chains,
//!   whose per-transfer cost is independent of array size (Section I);
//! * [`hybrid`] — the Section VI scheme (Fig. 8): bounded-size clocked
//!   elements whose local clock nodes synchronize by handshake, giving
//!   a cycle time independent of array size even where Theorem 6 rules
//!   out constant-skew global clocking;
//! * [`metastability`] — the stoppable-clock argument: why the hybrid
//!   scheme cannot fail on a metastable flip-flop while a conventional
//!   synchronizer can;
//! * [`pals`] — PALS-style offset exchange: a mesh of free-running
//!   local clocks kept logically synchronous by trading offsets with
//!   neighbors and slewing toward a fault-tolerant trimmed midpoint,
//!   self-stabilizing after fault episodes.
//!
//! # Example
//!
//! ```
//! use selftimed::prelude::*;
//!
//! let link = HandshakeLink::new(1.0, 0.5, Protocol::TwoPhase);
//! let params = HybridParams::new(4, 2.0, 1.0, 0.1, link);
//! // Cycle time is the same for a 16×16 and a 1024×1024 array.
//! let small = HybridArray::over_mesh(16, params).cycle_time();
//! let huge = HybridArray::over_mesh(1024, params).cycle_time();
//! assert_eq!(small, huge);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dataflow;
pub mod gate_element;
pub mod handshake;
pub mod hybrid;
pub mod metastability;
pub mod pals;

/// Convenient re-exports of the crate's primary items.
pub mod prelude {
    pub use crate::dataflow::{SelfTimedArray, WaveStats};
    pub use crate::gate_element::{ElementPair, PairRun};
    pub use crate::handshake::{ChainRun, HandshakeChain, HandshakeLink, Protocol};
    pub use crate::hybrid::{HybridArray, HybridParams};
    pub use crate::metastability::MetastabilityModel;
    pub use crate::pals::{PalsMesh, PalsParams};
}
