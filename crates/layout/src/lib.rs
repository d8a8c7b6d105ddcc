//! Planar layouts and communication graphs for VLSI processor arrays.
//!
//! This crate implements the *substrate* layer of the Fisher–Kung
//! reproduction: the objects that assumptions A1–A3 of the paper talk
//! about. An ideally synchronized processor array is a directed
//! communication graph ([`graph::CommGraph`]) laid out in the plane
//! ([`layout::Layout`]) with unit-area cells and unit-width wires.
//!
//! The crate provides:
//!
//! * the standard array topologies — linear, ring, mesh, torus,
//!   hexagonal, complete binary tree ([`graph`]);
//! * the layouts the paper draws — straight/folded/comb-shaped
//!   one-dimensional arrays (Figs. 4–6), square and hexagonal grids
//!   (Fig. 3), and H-tree layouts of binary trees ([`layout`]);
//! * rectangular-to-square grid embedding in the spirit of
//!   Aleliunas–Rosenberg, used by Theorem 2 ([`embedding`]);
//! * bisection-width machinery for the Theorem 6 lower bound
//!   ([`bisection`]).
//!
//! # Quick start
//!
//! ```
//! use array_layout::prelude::*;
//!
//! // The n × n array of Section V-B, laid out on the integer grid.
//! let comm = CommGraph::mesh(8, 8);
//! let layout = Layout::grid(&comm);
//! assert!(layout.validate(&comm).is_ok());
//! assert_eq!(known_bisection_width(&comm), Some(8));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bisection;
pub mod embedding;
pub mod geom;
pub mod graph;
pub mod layout;

/// Convenient re-exports of the crate's primary types.
pub mod prelude {
    pub use crate::bisection::known_bisection_width;
    pub use crate::embedding::GridEmbedding;
    pub use crate::geom::{Point, Rect};
    pub use crate::graph::{CellId, CommEdge, CommGraph, CommGraphBuilder, Topology};
    pub use crate::layout::{Layout, ValidateLayoutError};
}
