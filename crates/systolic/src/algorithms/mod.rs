//! Classic systolic algorithms, each implemented as an
//! [`ArrayAlgorithm`](crate::exec::ArrayAlgorithm) over the
//! appropriate communication graph and verified against a direct
//! reference implementation.
//!
//! * [`fir`] — convolution / FIR filtering on a linear array (the
//!   paper's flagship one-dimensional workload);
//! * [`matvec`] — matrix–vector product on a linear array;
//! * [`matmul`] — matrix–matrix product on a mesh (the
//!   two-dimensional array of Section V-B);
//! * [`hex_matmul`] — the Kung–Leiserson hexagonal matrix multiply
//!   (the workload behind Fig. 3(c));
//! * [`sort`] — odd–even transposition sort on a linear array;
//! * [`tree_machine`] — the Bentley–Kung tree search machine
//!   (Section VIII).

pub mod fir;
pub mod hex_matmul;
pub mod matmul;
pub mod matvec;
pub mod sort;
pub mod tree_machine;
