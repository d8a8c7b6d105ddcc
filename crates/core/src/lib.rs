//! # vlsi-sync — synchronizing large VLSI processor arrays
//!
//! A faithful reproduction of Fisher & Kung, *Synchronizing Large VLSI
//! Processor Arrays* (ISCA 1983): a spectrum of synchronization models
//! for processor arrays, with the paper's theorems as executable
//! bounds and its experiment as a simulation.
//!
//! This crate is the facade over the workspace:
//!
//! * [`array_layout`] — communication graphs and planar layouts
//!   (assumptions A1–A3);
//! * [`clock_tree`] — clock trees, the difference and summation skew
//!   models, clock periods (A4–A11);
//! * [`netlist`] — the gate-level simulation engine behind the
//!   Section VII inverter-string experiment, from the 2048-stage chip
//!   to a million gates;
//! * [`systolic`] — lock-step arrays, classic systolic algorithms,
//!   and skew-fault injection;
//! * [`selftimed`] — handshake links and the Section VI hybrid
//!   scheme;
//!
//! plus this crate's own synthesis:
//!
//! * [`theory`] — Theorems 2, 3 and 6 as calculators and
//!   certificates;
//! * [`analyzer`] — the scheme spectrum: achievable period `σ + δ + τ`
//!   per scheme per array, with asymptotic classification;
//! * [`bridge`] — clock-tree arrival times driving real systolic
//!   executions.
//!
//! ## The paper in one example
//!
//! ```
//! use vlsi_sync::prelude::*;
//!
//! let params = AnalysisParams::default();
//! let scheme = SyncScheme::PipelinedSummation { buffer_delay: 1.0, spacing: 2.0 };
//!
//! // Theorem 3: one-dimensional arrays clock at constant period…
//! let (xs, ys) = linear_period_sweep(&scheme, &[8, 64, 512], &params);
//! assert_eq!(classify_growth(&xs, &ys), GrowthClass::Constant);
//!
//! // …while two-dimensional arrays cannot (Section V-B).
//! let (xs, ys) = mesh_period_sweep(&scheme, &[4, 8, 16, 32], &params);
//! assert_eq!(classify_growth(&xs, &ys), GrowthClass::Linear);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyzer;
pub mod bridge;
pub mod theory;

pub use array_layout;
pub use clock_tree;
pub use netlist;
pub use selftimed;
pub use systolic;

/// Convenient re-exports of the synthesis layer (the substrate crates
/// have their own preludes).
pub mod prelude {
    pub use crate::analyzer::{
        analyze, linear_period_sweep, mesh_crossover, mesh_period_sweep, ring_period_sweep,
        AnalysisParams,
        SchemeReport, SyncScheme,
    };
    pub use crate::bridge::{
        hybrid_schedule, safe_period_for_tree, sampled_schedule, worst_case_schedule,
    };
    pub use crate::theory::{
        circle_certificate, classify_growth, mesh_skew_lower_bound, theorem2_period,
        theorem3_skew_bound, theorem6_bound_for, theorem6_lower_bound, CircleCertificate,
        GrowthClass, MESH_BISECTION_CONSTANT,
    };
}
