//! Workspace-level facade for the Fisher–Kung reproduction.
//!
//! This crate exists to host the repository's integration tests
//! (`tests/`) and runnable examples (`examples/`). The actual library
//! surface lives in the member crates; [`vlsi_sync`] re-exports all of
//! them behind one roof.
//!
//! ```
//! use vlsi_sync_repro::prelude::*;
//!
//! let comm = CommGraph::linear(8);
//! assert_eq!(comm.node_count(), 8);
//! ```

/// One-stop imports for examples and integration tests.
pub mod prelude {
    pub use array_layout::prelude::*;
    pub use clock_tree::prelude::*;
    pub use netlist::prelude::*;
    pub use selftimed::prelude::*;
    pub use systolic::prelude::*;
    pub use vlsi_sync::prelude::*;
}
