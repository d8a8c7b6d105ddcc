//! Bisection width of communication graphs (Lemma 4, Theorem 6).
//!
//! The paper's lower bound on two-dimensional clock skew rests on a
//! graph-theoretic quantity: the **minimum bisection width** `W(N)` —
//! the number of edges that must be cut to split a graph into two
//! roughly equal halves. Lemma 4 (Lipton–Eisenstat–DeMillo) says an
//! `n × n` mesh needs `Ω(n)` cuts; Theorem 6 turns any `W(N)` bound
//! into a clock-skew bound `σ = Ω(W(N))`.
//!
//! [`known_bisection_width`] gives the closed-form widths of the
//! standard topologies, which E4 and Theorem 6 use as ground truth.

use crate::graph::{CommGraph, Topology};

/// Closed-form minimum bisection width of the standard topologies,
/// counting undirected communication links.
///
/// Returns `None` for [`Topology::Custom`] graphs, which have no
/// closed form.
///
/// # Examples
///
/// ```
/// use array_layout::graph::CommGraph;
/// use array_layout::bisection::known_bisection_width;
///
/// let mesh = CommGraph::mesh(8, 8);
/// assert_eq!(known_bisection_width(&mesh), Some(8));
/// let tree = CommGraph::complete_binary_tree(5);
/// assert_eq!(known_bisection_width(&tree), Some(1));
/// ```
#[must_use]
pub fn known_bisection_width(comm: &CommGraph) -> Option<usize> {
    Some(match comm.topology() {
        Topology::Linear { n } => usize::from(n > 1),
        Topology::Ring { .. } => 2,
        // Cutting an r × c mesh across the shorter dimension severs
        // min(r, c) links.
        Topology::Mesh { rows, cols } => rows.min(cols),
        // A torus wraps, so any bisecting cut crosses twice.
        Topology::Torus { rows, cols } => 2 * rows.min(cols),
        // The hex array adds one diagonal per mesh square; a straight
        // cut across the shorter dimension severs the min(r,c) mesh
        // links plus min(r,c) - 1 diagonals.
        Topology::Hex { rows, cols } => 2 * rows.min(cols) - 1,
        // Removing one child edge of the root leaves subtrees of
        // (N-1)/2 and (N+1)/2 nodes.
        Topology::BinaryTree { .. } => 1,
        Topology::Custom => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_widths_match_structure() {
        assert_eq!(
            known_bisection_width(&CommGraph::linear(10)),
            Some(1)
        );
        assert_eq!(known_bisection_width(&CommGraph::linear(1)), Some(0));
        assert_eq!(known_bisection_width(&CommGraph::ring(8)), Some(2));
        assert_eq!(known_bisection_width(&CommGraph::mesh(6, 6)), Some(6));
        assert_eq!(known_bisection_width(&CommGraph::mesh(4, 9)), Some(4));
        assert_eq!(known_bisection_width(&CommGraph::torus(5, 5)), Some(10));
        assert_eq!(known_bisection_width(&CommGraph::hex(4, 4)), Some(7));
        assert_eq!(
            known_bisection_width(&CommGraph::complete_binary_tree(6)),
            Some(1)
        );
    }
}
