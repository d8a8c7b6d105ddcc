//! Planar layouts of communication graphs (assumptions A2/A3).
//!
//! A [`Layout`] assigns every cell of a [`CommGraph`] a position in the
//! plane (cells occupy unit area, A2) and every communication edge a
//! rectilinear wire route (wires have unit width, A3). The layout
//! generators here are the ones the paper draws:
//!
//! * [`Layout::linear_row`] — the straight one-dimensional array of
//!   Fig. 4(a).
//! * [`Layout::folded_linear`] — the array folded in the middle so both
//!   ends sit next to the host (Fig. 5).
//! * [`Layout::comb`] — the comb-shaped layout that gives a
//!   one-dimensional array any desired aspect ratio (Fig. 6).
//! * [`Layout::grid`] — square/hexagonal arrays on the integer grid
//!   (Fig. 3(b)/(c)).
//! * [`Layout::htree_tree`] — the H-tree layout of a complete binary
//!   tree in `O(N)` area (Section VIII).

use crate::geom::{approx_eq, route_length, Point, Rect};
use crate::graph::{CommGraph, Topology};

/// A placement of a communication graph in the plane.
///
/// # Examples
///
/// ```
/// use array_layout::graph::CommGraph;
/// use array_layout::layout::Layout;
///
/// let comm = CommGraph::linear(8);
/// let layout = Layout::linear_row(&comm);
/// assert_eq!(layout.max_wire_length(), 1.0);
/// assert!(layout.validate(&comm).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct Layout {
    positions: Vec<Point>,
    routes: Routes,
    bbox: Rect,
}

/// Every edge's rectilinear wire route, stored flat: route `e` is
/// `points[start[e]..start[e + 1]]`, at least two way-points long.
#[derive(Debug, Clone)]
struct Routes {
    points: Vec<Point>,
    start: Vec<usize>,
}

impl Routes {
    /// Room for `edges` routes of up to three way-points each.
    fn with_capacity(edges: usize) -> Self {
        let mut start = Vec::with_capacity(edges + 1);
        start.push(0);
        Routes {
            points: Vec::with_capacity(3 * edges),
            start,
        }
    }

    /// Appends one route through `points`.
    fn push(&mut self, points: &[Point]) {
        debug_assert!(points.len() >= 2, "a wire route needs two way-points");
        self.points.extend_from_slice(points);
        self.start.push(self.points.len());
    }

    /// Appends an L-shaped route from `a` to `b`, horizontal first; a
    /// straight one when the two already share a row or column.
    fn push_rectilinear(&mut self, a: Point, b: Point) {
        if approx_eq(a.x, b.x) || approx_eq(a.y, b.y) {
            self.push(&[a, b]);
        } else {
            self.push(&[a, Point::new(b.x, a.y), b]);
        }
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }

    fn get(&self, e: usize) -> &[Point] {
        &self.points[self.start[e]..self.start[e + 1]]
    }

    fn iter(&self) -> impl Iterator<Item = &[Point]> + '_ {
        self.start.windows(2).map(|w| &self.points[w[0]..w[1]])
    }
}

/// Error returned by [`Layout::validate`] when a layout is inconsistent
/// with its communication graph.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ValidateLayoutError {
    /// The layout has positions for a different number of cells than
    /// the graph has.
    CellCountMismatch {
        /// Cells in the layout.
        layout: usize,
        /// Cells in the graph.
        graph: usize,
    },
    /// The layout has routes for a different number of edges than the
    /// graph has.
    EdgeCountMismatch {
        /// Routes in the layout.
        layout: usize,
        /// Edges in the graph.
        graph: usize,
    },
    /// A route's endpoints do not coincide with the placed positions of
    /// the edge's cells.
    RouteDetached {
        /// Index of the offending edge.
        edge: usize,
    },
    /// Two cells were placed at (essentially) the same point,
    /// violating the unit-area assumption A2.
    OverlappingCells {
        /// First cell index.
        a: usize,
        /// Second cell index.
        b: usize,
    },
}

impl std::fmt::Display for ValidateLayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateLayoutError::CellCountMismatch { layout, graph } => write!(
                f,
                "layout places {layout} cells but the graph has {graph}"
            ),
            ValidateLayoutError::EdgeCountMismatch { layout, graph } => write!(
                f,
                "layout routes {layout} edges but the graph has {graph}"
            ),
            ValidateLayoutError::RouteDetached { edge } => {
                write!(f, "route of edge {edge} does not join its cells")
            }
            ValidateLayoutError::OverlappingCells { a, b } => {
                write!(f, "cells {a} and {b} overlap")
            }
        }
    }
}

impl std::error::Error for ValidateLayoutError {}

impl Layout {
    /// Builds a layout from explicit positions, routing every edge of
    /// `comm` rectilinearly between its endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len() != comm.node_count()`.
    #[must_use]
    pub fn from_positions(comm: &CommGraph, positions: Vec<Point>) -> Self {
        assert_eq!(
            positions.len(),
            comm.node_count(),
            "one position per cell required"
        );
        let mut routes = Routes::with_capacity(comm.edge_count());
        for e in comm.edges() {
            routes.push_rectilinear(positions[e.src.index()], positions[e.dst.index()]);
        }
        let bbox = Rect::bounding(positions.iter().copied())
            .unwrap_or_else(|| Rect::from_corners(Point::origin(), Point::origin()));
        Layout {
            positions,
            routes,
            bbox,
        }
    }

    /// The straight one-dimensional layout of Fig. 4(a): cell `i` at
    /// `(i, 0)`.
    ///
    /// # Panics
    ///
    /// Panics if `comm` is not a [`Topology::Linear`] array.
    #[must_use]
    pub fn linear_row(comm: &CommGraph) -> Self {
        let Topology::Linear { n } = comm.topology() else {
            panic!("linear_row requires a linear communication graph");
        };
        let positions = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
        Layout::from_positions(comm, positions)
    }

    /// The folded layout of Fig. 5: the array is folded at the middle
    /// so that both cell 0 and cell `n-1` sit at the left edge (next to
    /// the host). The first half runs left-to-right along `y = 0`; the
    /// second half runs right-to-left along `y = 1`.
    ///
    /// Every communicating pair remains at Manhattan distance ≤ 2, so
    /// the spine clocking of Theorem 3 still applies.
    ///
    /// # Panics
    ///
    /// Panics if `comm` is not a [`Topology::Linear`] array.
    #[must_use]
    pub fn folded_linear(comm: &CommGraph) -> Self {
        let Topology::Linear { n } = comm.topology() else {
            panic!("folded_linear requires a linear communication graph");
        };
        let half = n.div_ceil(2);
        let positions = (0..n)
            .map(|i| {
                if i < half {
                    Point::new(i as f64, 0.0)
                } else {
                    Point::new((n - 1 - i) as f64, 1.0)
                }
            })
            .collect();
        Layout::from_positions(comm, positions)
    }

    /// The comb-shaped layout of Fig. 6: the one-dimensional array
    /// snakes up and down teeth of height `tooth_height`, letting a
    /// long array be laid out with any desired aspect ratio while
    /// keeping neighbouring cells at unit distance.
    ///
    /// # Panics
    ///
    /// Panics if `comm` is not linear or `tooth_height == 0`.
    #[must_use]
    pub fn comb(comm: &CommGraph, tooth_height: usize) -> Self {
        let Topology::Linear { n } = comm.topology() else {
            panic!("comb requires a linear communication graph");
        };
        assert!(tooth_height > 0, "tooth height must be positive");
        let positions = (0..n)
            .map(|i| {
                let tooth = i / tooth_height;
                let within = i % tooth_height;
                let y = if tooth.is_multiple_of(2) {
                    within
                } else {
                    tooth_height - 1 - within
                };
                Point::new(tooth as f64, y as f64)
            })
            .collect();
        Layout::from_positions(comm, positions)
    }

    /// Grid layout for mesh, torus, and hex arrays: cell `(r, c)` at
    /// `(c, r)` (Fig. 3(b)/(c)). Torus wrap-around edges are routed
    /// around the outside of the array.
    ///
    /// # Panics
    ///
    /// Panics if `comm` is not a grid-like topology.
    #[must_use]
    pub fn grid(comm: &CommGraph) -> Self {
        let (rows, cols) = comm
            .grid_dims()
            .expect("grid layout requires a grid-like topology");
        let positions: Vec<Point> = (0..rows * cols)
            .map(|id| Point::new((id % cols) as f64, (id / cols) as f64))
            .collect();
        if matches!(comm.topology(), Topology::Torus { .. }) {
            // Route wrap edges around the array edge so their physical
            // length reflects the detour (cols or rows plus the detour
            // out and back).
            let mut routes = Routes::with_capacity(comm.edge_count());
            for e in comm.edges() {
                let a = positions[e.src.index()];
                let b = positions[e.dst.index()];
                if (a.x - b.x).abs() > 1.5 {
                    // horizontal wrap: go out beyond the boundary
                    let dir = if a.x < b.x { -1.0 } else { 1.0 };
                    let out_x = if dir < 0.0 { -1.0 } else { cols as f64 };
                    routes.push(&[
                        a,
                        Point::new(out_x, a.y),
                        Point::new(out_x, b.y - 0.5),
                        Point::new(b.x, b.y - 0.5),
                        b,
                    ]);
                } else if (a.y - b.y).abs() > 1.5 {
                    let dir = if a.y < b.y { -1.0 } else { 1.0 };
                    let out_y = if dir < 0.0 { -1.0 } else { rows as f64 };
                    routes.push(&[
                        a,
                        Point::new(a.x, out_y),
                        Point::new(b.x - 0.5, out_y),
                        Point::new(b.x - 0.5, b.y),
                        b,
                    ]);
                } else {
                    routes.push_rectilinear(a, b);
                }
            }
            let bbox = Rect::bounding(positions.iter().copied()).expect("non-empty");
            Layout {
                positions,
                routes,
                bbox,
            }
        } else {
            Layout::from_positions(comm, positions)
        }
    }

    /// Folded layout for rings: cells `0..⌈n/2⌉` run left-to-right on
    /// `y = 0`, the rest return right-to-left on `y = 1`, so *both*
    /// ring links at the fold — including the wrap edge `n−1 → 0` —
    /// stay within two cell pitches. Theorem 3's spine clocking then
    /// applies to rings exactly as to open linear arrays.
    ///
    /// # Panics
    ///
    /// Panics if `comm` is not a [`Topology::Ring`].
    #[must_use]
    pub fn folded_ring(comm: &CommGraph) -> Self {
        let Topology::Ring { n } = comm.topology() else {
            panic!("folded_ring requires a ring communication graph");
        };
        let half = n.div_ceil(2);
        let positions = (0..n)
            .map(|i| {
                if i < half {
                    Point::new(i as f64, 0.0)
                } else {
                    Point::new((n - 1 - i) as f64, 1.0)
                }
            })
            .collect();
        Layout::from_positions(comm, positions)
    }

    /// Offset ("brick") layout for hexagonal arrays: row `r` is
    /// shifted left by `r/2` cell pitches so that all six neighbours
    /// of an interior cell — east/west, the two vertical links, and
    /// the north-east diagonal — sit within 1.5 pitches, the honest
    /// geometry of Fig. 3(c) (the plain [`Layout::grid`] stretches the
    /// diagonal to 2).
    ///
    /// # Panics
    ///
    /// Panics if `comm` is not a [`Topology::Hex`] array.
    #[must_use]
    pub fn hex_offset(comm: &CommGraph) -> Self {
        let Topology::Hex { rows, cols } = comm.topology() else {
            panic!("hex_offset requires a hexagonal communication graph");
        };
        let positions = (0..rows * cols)
            .map(|id| {
                let (r, c) = (id / cols, id % cols);
                Point::new(c as f64 - r as f64 * 0.5, r as f64)
            })
            .collect();
        Layout::from_positions(comm, positions)
    }

    /// H-tree layout of a complete binary tree (Section VIII): the
    /// root sits at the centre of the bounding square and each subtree
    /// occupies one half, alternating horizontal and vertical splits.
    /// Total area is `O(N)` and an edge at depth `k` has length
    /// `Θ(√N / 2^(k/2))`.
    ///
    /// # Panics
    ///
    /// Panics if `comm` is not a [`Topology::BinaryTree`].
    #[must_use]
    pub fn htree_tree(comm: &CommGraph) -> Self {
        let Topology::BinaryTree { levels } = comm.topology() else {
            panic!("htree_tree requires a complete binary tree graph");
        };
        // Side chosen so the deepest split still separates nodes by at
        // least one cell pitch: offsets at depth k are side / 2^(k/2+2)
        // (rounded), so side = 2^(ceil(L/2)+1) keeps every offset ≥ 1.
        let side = (1_usize << (levels.div_ceil(2) + 1)) as f64;
        let mut positions = vec![Point::origin(); comm.node_count()];
        // Region-based recursion: each node sits at the centre of a
        // `w × h` region and hands each child one half of it,
        // alternating split direction — the classic H-tree.
        fn place(
            positions: &mut [Point],
            node: usize,
            center: Point,
            w: f64,
            h: f64,
            horizontal: bool,
        ) {
            positions[node] = center;
            let (left, right) = (2 * node + 1, 2 * node + 2);
            if left >= positions.len() {
                return;
            }
            if horizontal {
                let off = w / 4.0;
                place(positions, left, center.translated(-off, 0.0), w / 2.0, h, false);
                if right < positions.len() {
                    place(positions, right, center.translated(off, 0.0), w / 2.0, h, false);
                }
            } else {
                let off = h / 4.0;
                place(positions, left, center.translated(0.0, -off), w, h / 2.0, true);
                if right < positions.len() {
                    place(positions, right, center.translated(0.0, off), w, h / 2.0, true);
                }
            }
        }
        place(
            &mut positions,
            0,
            Point::new(side / 2.0, side / 2.0),
            side,
            side,
            true,
        );
        Layout::from_positions(comm, positions)
    }

    /// Position of cell `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn position(&self, i: usize) -> Point {
        self.positions[i]
    }

    /// All cell positions, indexed by cell id.
    #[must_use]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Way-points of the wire routed for communication edge `e` (same
    /// index as [`CommGraph::edges`]), from its source cell to its
    /// target cell; at least two long.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn route(&self, e: usize) -> &[Point] {
        self.routes.get(e)
    }

    /// Physical length of the wire routed for edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn wire_length(&self, e: usize) -> f64 {
        route_length(self.routes.get(e))
    }

    /// The longest communication wire in the layout; with unit-length
    /// delay this bounds the communication part of δ in A5.
    #[must_use]
    pub fn max_wire_length(&self) -> f64 {
        self.routes.iter().map(route_length).fold(0.0, f64::max)
    }

    /// Layout area measured as the bounding box of cell centres, each
    /// padded by the unit cell (A2). Never less than the cell count.
    #[must_use]
    pub fn area(&self) -> f64 {
        ((self.bbox.width() + 1.0) * (self.bbox.height() + 1.0))
            .max(self.positions.len() as f64)
    }

    /// Aspect ratio of the bounding box (≥ 1).
    #[must_use]
    pub fn aspect_ratio(&self) -> f64 {
        self.bbox.aspect_ratio()
    }

    /// Checks this layout against its graph: one position per cell,
    /// one route per edge, routes attached to their cells, and no two
    /// cells overlapping.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateLayoutError`] found.
    pub fn validate(&self, comm: &CommGraph) -> Result<(), ValidateLayoutError> {
        if self.positions.len() != comm.node_count() {
            return Err(ValidateLayoutError::CellCountMismatch {
                layout: self.positions.len(),
                graph: comm.node_count(),
            });
        }
        if self.routes.len() != comm.edge_count() {
            return Err(ValidateLayoutError::EdgeCountMismatch {
                layout: self.routes.len(),
                graph: comm.edge_count(),
            });
        }
        let at = |p: Point, q: Point| approx_eq(p.x, q.x) && approx_eq(p.y, q.y);
        for (i, (e, r)) in comm.edges().iter().zip(self.routes.iter()).enumerate() {
            let (a, b) = (self.positions[e.src.index()], self.positions[e.dst.index()]);
            let (start, end) = (r[0], r[r.len() - 1]);
            let attached = (at(start, a) && at(end, b)) || (at(start, b) && at(end, a));
            if !attached {
                return Err(ValidateLayoutError::RouteDetached { edge: i });
            }
        }
        // O(n^2) overlap scan is fine at test scale; layouts are built
        // once per experiment.
        for a in 0..self.positions.len() {
            for b in (a + 1)..self.positions.len() {
                if self.positions[a].euclidean(self.positions[b]) < 0.5 {
                    return Err(ValidateLayoutError::OverlappingCells { a, b });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CommGraph;

    #[test]
    fn linear_row_unit_spacing() {
        let comm = CommGraph::linear(10);
        let l = Layout::linear_row(&comm);
        assert!(l.validate(&comm).is_ok());
        assert!(approx_eq(l.max_wire_length(), 1.0));
        assert!(approx_eq(l.bbox.width(), 9.0));
    }

    #[test]
    fn folded_keeps_neighbors_close_and_ends_adjacent_to_host() {
        let comm = CommGraph::linear(12);
        let l = Layout::folded_linear(&comm);
        assert!(l.validate(&comm).is_ok());
        // All communicating wires stay short (the fold itself costs 1).
        assert!(l.max_wire_length() <= 2.0 + 1e-9);
        // Both array ends sit at x = 0 (next to the host).
        assert!(approx_eq(l.position(0).x, 0.0));
        assert!(approx_eq(l.position(11).x, 0.0));
    }

    #[test]
    fn folded_handles_odd_length() {
        let comm = CommGraph::linear(7);
        let l = Layout::folded_linear(&comm);
        assert!(l.validate(&comm).is_ok());
        assert!(l.max_wire_length() <= 2.0 + 1e-9);
    }

    #[test]
    fn comb_achieves_requested_aspect_ratio() {
        let comm = CommGraph::linear(64);
        let square = Layout::comb(&comm, 8);
        assert!(square.validate(&comm).is_ok());
        assert!(approx_eq(square.aspect_ratio(), 1.0));
        // Within a tooth and across teeth, neighbours stay at unit
        // distance (the snake turns at tooth tops/bottoms).
        assert!(square.max_wire_length() <= 1.0 + 1e-9);

        let wide = Layout::comb(&comm, 4);
        assert!(wide.aspect_ratio() > 4.0);
    }

    #[test]
    fn comb_with_tooth_one_is_a_row() {
        let comm = CommGraph::linear(5);
        let l = Layout::comb(&comm, 1);
        assert!(l.validate(&comm).is_ok());
        for i in 0..5 {
            assert!(approx_eq(l.position(i).y, 0.0));
        }
    }

    #[test]
    fn grid_layout_of_mesh() {
        let comm = CommGraph::mesh(4, 5);
        let l = Layout::grid(&comm);
        assert!(l.validate(&comm).is_ok());
        assert!(approx_eq(l.max_wire_length(), 1.0));
        // bbox spans 4 × 3 cell pitches; padded by the unit cell.
        assert!(approx_eq(l.area(), 5.0 * 4.0));
    }

    #[test]
    fn grid_layout_of_hex_has_diagonals() {
        let comm = CommGraph::hex(3, 3);
        let l = Layout::grid(&comm);
        assert!(l.validate(&comm).is_ok());
        // Diagonal neighbours routed rectilinearly: length 2.
        assert!(approx_eq(l.max_wire_length(), 2.0));
    }

    #[test]
    fn folded_ring_keeps_all_links_short() {
        for n in [3usize, 4, 7, 12, 25] {
            let comm = CommGraph::ring(n);
            let l = Layout::folded_ring(&comm);
            assert!(l.validate(&comm).is_ok(), "n={n}");
            assert!(
                l.max_wire_length() <= 2.0 + 1e-9,
                "n={n}: wrap edge too long: {}",
                l.max_wire_length()
            );
        }
    }

    #[test]
    #[should_panic(expected = "ring")]
    fn folded_ring_rejects_linear() {
        let comm = CommGraph::linear(4);
        let _ = Layout::folded_ring(&comm);
    }

    #[test]
    fn hex_offset_bounds_all_six_neighbors() {
        let comm = CommGraph::hex(5, 5);
        let l = Layout::hex_offset(&comm);
        assert!(l.validate(&comm).is_ok());
        // Every communicating pair within 1.5 pitches, diagonal
        // included — tighter than the square grid's 2.
        assert!(l.max_wire_length() <= 1.5 + 1e-9, "{}", l.max_wire_length());
    }

    #[test]
    #[should_panic(expected = "hexagonal")]
    fn hex_offset_rejects_mesh() {
        let comm = CommGraph::mesh(3, 3);
        let _ = Layout::hex_offset(&comm);
    }

    #[test]
    fn torus_wrap_edges_routed_around() {
        let comm = CommGraph::torus(4, 4);
        let l = Layout::grid(&comm);
        assert!(l.validate(&comm).is_ok());
        // Wrap wires must be much longer than unit.
        assert!(l.max_wire_length() >= 4.0);
    }

    #[test]
    fn htree_layout_area_linear_in_nodes() {
        for levels in 2..9 {
            let comm = CommGraph::complete_binary_tree(levels);
            let l = Layout::htree_tree(&comm);
            l.validate(&comm)
                .unwrap_or_else(|e| panic!("levels {levels}: {e}"));
            let n = comm.node_count() as f64;
            assert!(
                l.area() <= 16.0 * n,
                "levels {levels}: area {} too large for {} nodes",
                l.area(),
                n
            );
        }
    }

    #[test]
    fn htree_root_edges_are_longest() {
        let comm = CommGraph::complete_binary_tree(8);
        let l = Layout::htree_tree(&comm);
        let root_edge_len = l.wire_length(0);
        assert!(root_edge_len >= l.max_wire_length() / 2.0);
    }

    #[test]
    fn validate_rejects_detached_route() {
        let comm = CommGraph::linear(3);
        let mut l = Layout::linear_row(&comm);
        let s = l.routes.start[0];
        l.routes.points[s..s + 2]
            .copy_from_slice(&[Point::new(10.0, 10.0), Point::new(11.0, 10.0)]);
        assert!(matches!(
            l.validate(&comm),
            Err(ValidateLayoutError::RouteDetached { edge: 0 })
        ));
    }

    #[test]
    fn routes_are_rectilinear_and_collapse_when_collinear() {
        let comm = CommGraph::linear(2);
        let straight =
            Layout::from_positions(&comm, vec![Point::new(0.0, 1.0), Point::new(5.0, 1.0)]);
        assert_eq!(
            straight.route(0),
            [Point::new(0.0, 1.0), Point::new(5.0, 1.0)]
        );
        let bent = Layout::from_positions(&comm, vec![Point::origin(), Point::new(2.0, 2.0)]);
        // Horizontal first, from the edge's source to its target.
        assert_eq!(
            bent.route(0),
            [Point::origin(), Point::new(2.0, 0.0), Point::new(2.0, 2.0)]
        );
        assert_eq!(bent.route(1)[0], Point::new(2.0, 2.0));
        assert!(approx_eq(bent.wire_length(0), 4.0));
        assert!(approx_eq(bent.max_wire_length(), 4.0));
    }

    #[test]
    fn validate_rejects_overlap() {
        let comm = CommGraph::linear(2);
        let l = Layout::from_positions(
            &comm,
            vec![Point::origin(), Point::new(0.1, 0.0)],
        );
        assert!(matches!(
            l.validate(&comm),
            Err(ValidateLayoutError::OverlappingCells { .. })
        ));
    }

    #[test]
    fn area_at_least_cell_count() {
        let comm = CommGraph::linear(4);
        let l = Layout::linear_row(&comm);
        assert!(l.area() >= 4.0);
    }
}
