//! Clock distribution for VLSI processor arrays: trees, skew models,
//! and clock-period analysis.
//!
//! This crate implements assumptions A4–A11 of Fisher & Kung,
//! *Synchronizing Large VLSI Processor Arrays* (1983):
//!
//! * [`tree`] — rooted binary clock trees laid out in the plane, with
//!   the difference (`d`) and summation (`s`) path metrics, buffer
//!   accounting, Lemma 1's delay equalization, and Lemma 5's
//!   separator edge;
//! * [`builders`] — the clock-tree constructions the paper draws:
//!   H-trees (Fig. 3), the one-dimensional spine (Fig. 4), serpentine
//!   and comb contrast strategies, and clock-along-data-paths for tree
//!   machines (Section VIII);
//! * [`delay`] — the `m ± ε` per-unit wire-delay model of
//!   Section III;
//! * [`skew`] — the difference model (A9) and summation model
//!   (A10/A11), analytic worst-case skew `m·d + ε·s`, and Monte-Carlo
//!   measurement;
//! * [`period`] — the clock period `σ + δ + τ` (A5) under
//!   equipotential (A6) and pipelined (A7) distribution;
//! * [`trix`] — the modern escape hatch: TRIX-style self-stabilizing
//!   pulse propagation through a redundant grid (median voting over
//!   width-3 predecessor links), plus the rigid no-adaptation contrast
//!   model the recovery harness compares it against.
//!
//! # Quick start: Theorem 3 in five lines
//!
//! ```
//! use array_layout::prelude::*;
//! use clock_tree::prelude::*;
//!
//! let comm = CommGraph::linear(100);
//! let layout = Layout::linear_row(&comm);
//! let clk = spine(&comm, &layout);
//! let model = SummationModel::from_delay_model(WireDelayModel::new(1.0, 0.1));
//! // Max skew between communicating cells is a constant (1.1 · 1),
//! // independent of the array's 100-cell length.
//! assert!(model.max_skew(&clk, &comm) <= 1.1 + 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builders;
pub mod delay;
pub mod elmore;
pub mod jitter;
pub mod period;
pub mod skew;
pub mod tree;
pub mod trix;

/// Convenient re-exports of the crate's primary items.
pub mod prelude {
    pub use crate::builders::{
        comb_tree, htree, mirror_tree, serpentine, spine, spine_ring, spine_through,
    };
    pub use crate::delay::WireDelayModel;
    pub use crate::elmore::{buffered_line_delay, unbuffered_line_delay, ElmoreDelays, RcParams};
    pub use crate::jitter::{max_reliable_depth, propagate_event_train, SpacingStats};
    pub use crate::period::{clock_period, clock_period_exact_form, Distribution};
    pub use crate::skew::{
        achievable_skew_lower_bound, attribute_skew, max_worst_case_skew, monte_carlo_skew_par,
        worst_case_skew,
        ArrivalTimes, DifferenceModel, EdgeContribution, SkewBreakdown, SkewSample,
        SummationModel,
    };
    pub use crate::tree::{BufferFaultReport, ClockTree, ClockTreeBuilder, NodeId};
    pub use crate::trix::{RigidGrid, TrixGrid, TrixParams};
}
