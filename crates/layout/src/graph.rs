//! Communication graphs (paper assumption A1).
//!
//! An *ideally synchronized processor array* is defined by a directed
//! graph `COMM` laid out in the plane: nodes are cells, each directed
//! edge is a wire that carries one data item from source to target per
//! system cycle. Two cells joined by an edge are *communicating cells* —
//! the pairs whose clock skew the paper's models bound.
//!
//! This module provides the graph itself plus the standard array
//! topologies the paper discusses: one-dimensional (linear) arrays,
//! square meshes, hexagonal arrays (Fig. 3), and complete binary trees
//! (Section VIII's tree machines).

use std::collections::VecDeque;
use std::fmt;

/// Identifier of one cell (node) in a [`CommGraph`].
///
/// Ids are dense indices in `0..node_count()`, so they can be used
/// directly to index per-cell side tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(usize);

impl CellId {
    /// Creates a cell id from a raw index.
    #[must_use]
    pub fn new(index: usize) -> Self {
        CellId(index)
    }

    /// The raw dense index of this cell.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// One directed communication edge: a wire from `src` to `dst`
/// carrying a data item every cycle (assumption A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommEdge {
    /// Sending cell.
    pub src: CellId,
    /// Receiving cell.
    pub dst: CellId,
}

impl CommEdge {
    /// Creates an edge from `src` to `dst`.
    #[must_use]
    pub fn new(src: CellId, dst: CellId) -> Self {
        CommEdge { src, dst }
    }
}

/// Which standard array family a graph was built as.
///
/// Generators record their family so that layout constructors and
/// experiment harnesses can check they are being applied to the
/// topology they were designed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Topology {
    /// One-dimensional array of `n` cells with bidirectional
    /// neighbour links (Fig. 4(a)).
    Linear {
        /// Number of cells.
        n: usize,
    },
    /// Linear array closed into a cycle.
    Ring {
        /// Number of cells.
        n: usize,
    },
    /// Two-dimensional `rows × cols` mesh with 4-neighbour links
    /// (the `n × n` array of Section V-B).
    Mesh {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Mesh with wrap-around links in both dimensions.
    Torus {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Hexagonal array: mesh plus one diagonal per cell, giving six
    /// neighbours in the interior (Fig. 3(c)).
    Hex {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Complete binary tree with `levels` levels (Section VIII).
    BinaryTree {
        /// Number of levels; a tree with `levels = k` has `2^k - 1` nodes.
        levels: usize,
    },
    /// Anything assembled through [`CommGraphBuilder`].
    Custom,
}

/// Directed communication graph of a processor array (assumption A1).
///
/// # Examples
///
/// ```
/// use array_layout::graph::CommGraph;
///
/// let mesh = CommGraph::mesh(4, 4);
/// assert_eq!(mesh.node_count(), 16);
/// // 4 rows × 3 horizontal links + 3 × 4 vertical links, both directions:
/// assert_eq!(mesh.edge_count(), 2 * (4 * 3 + 3 * 4));
/// assert!(mesh.is_connected());
/// ```
#[derive(Debug, Clone)]
pub struct CommGraph {
    nodes: usize,
    edges: Vec<CommEdge>,
    out_rows: EdgeRows,
    in_rows: EdgeRows,
    topology: Topology,
}

/// Per-cell edge-id rows in compressed sparse row form: cell `c`'s
/// edges are `ids[start[c]..start[c + 1]]`, in insertion order.
#[derive(Debug, Clone)]
struct EdgeRows {
    start: Vec<usize>,
    ids: Vec<usize>,
}

impl EdgeRows {
    /// Groups the edge ids by `end(edge)` with a stable counting sort,
    /// so each row keeps insertion order.
    fn build(nodes: usize, edges: &[CommEdge], end: impl Fn(&CommEdge) -> usize) -> Self {
        let mut start = vec![0usize; nodes + 1];
        for e in edges {
            start[end(e) + 1] += 1;
        }
        for c in 0..nodes {
            start[c + 1] += start[c];
        }
        // Fill with `start[c]` as row `c`'s cursor; afterwards each
        // cursor sits at the next row's start, so shift back by one.
        let mut ids = vec![0usize; edges.len()];
        for (idx, e) in edges.iter().enumerate() {
            let c = end(e);
            ids[start[c]] = idx;
            start[c] += 1;
        }
        start.copy_within(0..nodes, 1);
        start[0] = 0;
        EdgeRows { start, ids }
    }

    fn row(&self, cell: usize) -> &[usize] {
        &self.ids[self.start[cell]..self.start[cell + 1]]
    }
}

/// Appends the directed edge `src → dst`.
fn push_edge(edges: &mut Vec<CommEdge>, src: usize, dst: usize) {
    debug_assert!(src != dst);
    edges.push(CommEdge::new(CellId(src), CellId(dst)));
}

/// Appends `a → b` then `b → a`.
fn push_bidir(edges: &mut Vec<CommEdge>, a: usize, b: usize) {
    push_edge(edges, a, b);
    push_edge(edges, b, a);
}

/// The mesh links of a `rows × cols` grid, row-major, each cell's east
/// link before its south link (and its north-east diagonal last when
/// `diagonal`), with room reserved for `extra` more edges.
fn grid_links(rows: usize, cols: usize, diagonal: bool, extra: usize) -> Vec<CommEdge> {
    let mut links = rows * (cols - 1) + (rows - 1) * cols;
    if diagonal {
        links += (rows - 1) * (cols - 1);
    }
    let mut edges = Vec::with_capacity(2 * links + extra);
    for r in 0..rows {
        for c in 0..cols {
            let id = r * cols + c;
            if c + 1 < cols {
                push_bidir(&mut edges, id, id + 1);
            }
            if r + 1 < rows {
                push_bidir(&mut edges, id, id + cols);
            }
            if diagonal && r + 1 < rows && c + 1 < cols {
                push_bidir(&mut edges, id, id + cols + 1);
            }
        }
    }
    edges
}

impl CommGraph {
    /// The one constructor: every generator and [`CommGraphBuilder`]
    /// assemble the edge list, then build both edge-id row tables from
    /// it once.
    fn from_edges(nodes: usize, edges: Vec<CommEdge>, topology: Topology) -> Self {
        debug_assert!(edges.iter().all(|e| e.src.0 < nodes && e.dst.0 < nodes));
        let out_rows = EdgeRows::build(nodes, &edges, |e| e.src.0);
        let in_rows = EdgeRows::build(nodes, &edges, |e| e.dst.0);
        CommGraph {
            nodes,
            edges,
            out_rows,
            in_rows,
            topology,
        }
    }

    /// Builds a one-dimensional array of `n` cells, each linked in both
    /// directions with its neighbours (Fig. 4(a)).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn linear(n: usize) -> Self {
        assert!(n > 0, "a linear array needs at least one cell");
        let mut edges = Vec::with_capacity(2 * (n - 1));
        for i in 0..n - 1 {
            push_bidir(&mut edges, i, i + 1);
        }
        CommGraph::from_edges(n, edges, Topology::Linear { n })
    }

    /// Builds a ring of `n` cells.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`; smaller rings degenerate into a linear array
    /// or a multi-edge.
    #[must_use]
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "a ring needs at least three cells, got {n}");
        let mut edges = Vec::with_capacity(2 * n);
        for i in 0..n {
            push_bidir(&mut edges, i, (i + 1) % n);
        }
        CommGraph::from_edges(n, edges, Topology::Ring { n })
    }

    /// Builds a `rows × cols` mesh with 4-neighbour bidirectional links.
    ///
    /// Cell `(r, c)` has id `r * cols + c`; see [`CommGraph::grid_id`].
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`.
    #[must_use]
    pub fn mesh(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "mesh dimensions must be positive");
        let edges = grid_links(rows, cols, false, 0);
        CommGraph::from_edges(rows * cols, edges, Topology::Mesh { rows, cols })
    }

    /// Builds a `rows × cols` torus (mesh with wrap-around links).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is smaller than 3 (wrap-around links
    /// would duplicate mesh links).
    #[must_use]
    pub fn torus(rows: usize, cols: usize) -> Self {
        assert!(
            rows >= 3 && cols >= 3,
            "torus dimensions must be at least 3, got {rows}x{cols}"
        );
        let mut edges = grid_links(rows, cols, false, 2 * (rows + cols));
        for r in 0..rows {
            push_bidir(&mut edges, r * cols + (cols - 1), r * cols);
        }
        for c in 0..cols {
            push_bidir(&mut edges, (rows - 1) * cols + c, c);
        }
        CommGraph::from_edges(rows * cols, edges, Topology::Torus { rows, cols })
    }

    /// Builds a hexagonal `rows × cols` array: a mesh plus the
    /// north-east diagonal, giving interior cells six neighbours
    /// (Fig. 3(c)).
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`.
    #[must_use]
    pub fn hex(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "hex dimensions must be positive");
        let edges = grid_links(rows, cols, true, 0);
        CommGraph::from_edges(rows * cols, edges, Topology::Hex { rows, cols })
    }

    /// Builds a complete binary tree with `levels` levels
    /// (`2^levels - 1` nodes), edges in both directions — the COMM
    /// graph of Section VIII's tree machines.
    ///
    /// Node 0 is the root; node `i` has children `2i + 1` and `2i + 2`.
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0` or if the node count would overflow.
    #[must_use]
    pub fn complete_binary_tree(levels: usize) -> Self {
        assert!(levels > 0, "a tree needs at least one level");
        let nodes = (1_usize
            .checked_shl(levels as u32)
            .expect("tree too large"))
            - 1;
        let mut edges = Vec::with_capacity(2 * (nodes - 1));
        for i in 0..nodes {
            for child in [2 * i + 1, 2 * i + 2] {
                if child < nodes {
                    push_bidir(&mut edges, i, child);
                }
            }
        }
        CommGraph::from_edges(nodes, edges, Topology::BinaryTree { levels })
    }

    /// Id of the cell at grid position `(row, col)` for grid-like
    /// topologies (mesh, torus, hex).
    ///
    /// # Panics
    ///
    /// Panics if this graph is not grid-like or the position is out of
    /// bounds.
    #[must_use]
    pub fn grid_id(&self, row: usize, col: usize) -> CellId {
        let (rows, cols) = self.grid_dims().expect("grid_id on a non-grid topology");
        assert!(row < rows && col < cols, "grid position out of bounds");
        CellId(row * cols + col)
    }

    /// `(rows, cols)` for grid-like topologies, `None` otherwise.
    #[must_use]
    pub fn grid_dims(&self) -> Option<(usize, usize)> {
        match self.topology {
            Topology::Mesh { rows, cols }
            | Topology::Torus { rows, cols }
            | Topology::Hex { rows, cols } => Some((rows, cols)),
            Topology::Linear { n } | Topology::Ring { n } => Some((1, n)),
            _ => None,
        }
    }

    /// The topology family this graph was generated as.
    #[must_use]
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Number of cells.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of directed edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All cells, in id order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.nodes).map(CellId)
    }

    /// All directed edges, in insertion order.
    #[must_use]
    pub fn edges(&self) -> &[CommEdge] {
        &self.edges
    }

    /// Every unordered pair of communicating cells, deduplicated:
    /// the pairs whose skew the paper's models bound.
    #[must_use]
    pub fn communicating_pairs(&self) -> Vec<(CellId, CellId)> {
        let mut pairs: Vec<(CellId, CellId)> = self
            .edges
            .iter()
            .map(|e| {
                if e.src <= e.dst {
                    (e.src, e.dst)
                } else {
                    (e.dst, e.src)
                }
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Indices (into [`CommGraph::edges`]) of the edges leaving `cell`,
    /// in insertion order. Systolic executors use these as the cell's
    /// output-port order.
    #[must_use]
    pub fn out_edge_ids(&self, cell: CellId) -> &[usize] {
        self.out_rows.row(cell.index())
    }

    /// Indices (into [`CommGraph::edges`]) of the edges entering
    /// `cell`, in insertion order — the cell's input-port order.
    #[must_use]
    pub fn in_edge_ids(&self, cell: CellId) -> &[usize] {
        self.in_rows.row(cell.index())
    }

    /// Cells reachable from `cell` over one outgoing edge.
    pub fn out_neighbors(&self, cell: CellId) -> impl Iterator<Item = CellId> + '_ {
        self.out_edge_ids(cell).iter().map(|&e| self.edges[e].dst)
    }

    /// Cells with an edge into `cell`.
    pub fn in_neighbors(&self, cell: CellId) -> impl Iterator<Item = CellId> + '_ {
        self.in_edge_ids(cell).iter().map(|&e| self.edges[e].src)
    }

    /// Neighbours of `cell` ignoring edge direction, deduplicated.
    #[must_use]
    pub fn undirected_neighbors(&self, cell: CellId) -> Vec<CellId> {
        let mut ns: Vec<CellId> = self
            .out_neighbors(cell)
            .chain(self.in_neighbors(cell))
            .collect();
        ns.sort_unstable();
        ns.dedup();
        ns
    }

    /// Undirected degree of `cell` (number of distinct neighbours).
    #[must_use]
    pub fn degree(&self, cell: CellId) -> usize {
        self.undirected_neighbors(cell).len()
    }

    /// Breadth-first hop distances from `start`, ignoring edge
    /// direction. Unreachable cells report `usize::MAX`.
    #[must_use]
    pub fn bfs_distances(&self, start: CellId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.nodes];
        let mut queue = VecDeque::new();
        dist[start.index()] = 0;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            for v in self.out_neighbors(u).chain(self.in_neighbors(u)) {
                if dist[v.index()] == usize::MAX {
                    dist[v.index()] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Returns `true` when the graph is connected (ignoring direction).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.nodes == 0 {
            return true;
        }
        self.bfs_distances(CellId(0))
            .iter()
            .all(|&d| d != usize::MAX)
    }
}

/// Incremental builder for custom communication graphs.
///
/// # Examples
///
/// ```
/// use array_layout::graph::{CellId, CommGraphBuilder};
///
/// let mut b = CommGraphBuilder::new(3);
/// b.edge(CellId::new(0), CellId::new(1));
/// b.bidirectional(CellId::new(1), CellId::new(2));
/// let g = b.build();
/// assert_eq!(g.edge_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct CommGraphBuilder {
    nodes: usize,
    edges: Vec<CommEdge>,
}

impl CommGraphBuilder {
    /// Starts a builder for a graph with `nodes` cells and no edges.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        CommGraphBuilder {
            nodes,
            edges: Vec::new(),
        }
    }

    /// Adds one directed edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or the edge is a
    /// self-loop.
    pub fn edge(&mut self, src: CellId, dst: CellId) -> &mut Self {
        assert!(
            src.index() < self.nodes && dst.index() < self.nodes,
            "edge endpoint out of range"
        );
        assert_ne!(src, dst, "self-loops are not meaningful in COMM");
        push_edge(&mut self.edges, src.index(), dst.index());
        self
    }

    /// Adds a pair of directed edges in both directions.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`CommGraphBuilder::edge`].
    pub fn bidirectional(&mut self, a: CellId, b: CellId) -> &mut Self {
        self.edge(a, b);
        self.edge(b, a);
        self
    }

    /// Finishes the graph.
    #[must_use]
    pub fn build(self) -> CommGraph {
        CommGraph::from_edges(self.nodes, self.edges, Topology::Custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_array_structure() {
        let g = CommGraph::linear(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.degree(CellId::new(0)), 1);
        assert_eq!(g.degree(CellId::new(2)), 2);
        assert!(g.is_connected());
        assert_eq!(g.communicating_pairs().len(), 4);
    }

    #[test]
    fn linear_single_cell_has_no_edges() {
        let g = CommGraph::linear(1);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn ring_closes_the_loop() {
        let g = CommGraph::ring(6);
        assert_eq!(g.edge_count(), 12);
        for c in g.cells() {
            assert_eq!(g.degree(c), 2);
        }
        let d = g.bfs_distances(CellId::new(0));
        assert_eq!(d[3], 3);
        assert_eq!(d[5], 1);
    }

    #[test]
    fn mesh_edge_count_and_degrees() {
        let g = CommGraph::mesh(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 2 * (3 * 3 + 2 * 4));
        assert_eq!(g.degree(g.grid_id(0, 0)), 2);
        assert_eq!(g.degree(g.grid_id(1, 1)), 4);
        assert_eq!(g.degree(g.grid_id(0, 2)), 3);
    }

    #[test]
    fn torus_is_regular() {
        let g = CommGraph::torus(3, 3);
        for c in g.cells() {
            assert_eq!(g.degree(c), 4);
        }
    }

    #[test]
    fn hex_interior_has_six_neighbors() {
        let g = CommGraph::hex(3, 3);
        assert_eq!(g.degree(g.grid_id(1, 1)), 6);
        assert_eq!(g.degree(g.grid_id(0, 0)), 3);
    }

    #[test]
    fn binary_tree_structure() {
        let g = CommGraph::complete_binary_tree(4);
        assert_eq!(g.node_count(), 15);
        assert_eq!(g.edge_count(), 2 * 14);
        assert_eq!(g.degree(CellId::new(0)), 2);
        assert_eq!(g.degree(CellId::new(1)), 3);
        assert_eq!(g.degree(CellId::new(14)), 1);
        assert!(g.is_connected());
    }

    #[test]
    fn bfs_distances_on_mesh_are_manhattan() {
        let g = CommGraph::mesh(4, 4);
        let d = g.bfs_distances(g.grid_id(0, 0));
        assert_eq!(d[g.grid_id(3, 3).index()], 6);
        assert_eq!(d[g.grid_id(2, 1).index()], 3);
    }

    #[test]
    fn communicating_pairs_deduplicate_bidirectional_links() {
        let g = CommGraph::mesh(2, 2);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.communicating_pairs().len(), 4);
    }

    #[test]
    fn builder_assembles_custom_graph() {
        let mut b = CommGraphBuilder::new(4);
        b.edge(CellId::new(0), CellId::new(1));
        b.bidirectional(CellId::new(1), CellId::new(2));
        b.edge(CellId::new(2), CellId::new(3));
        let g = b.build();
        assert_eq!(g.topology(), Topology::Custom);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(
            g.out_neighbors(CellId::new(1)).collect::<Vec<_>>(),
            vec![CellId::new(2)]
        );
        assert_eq!(
            g.in_neighbors(CellId::new(1)).collect::<Vec<_>>(),
            vec![CellId::new(0), CellId::new(2)]
        );
    }

    #[test]
    fn edge_id_rows_are_the_insertion_order_scan() {
        // Systolic executors read these rows as port order, so each must
        // equal a naive scan of `edges()` filtered by endpoint.
        let mut custom = CommGraphBuilder::new(5);
        custom
            .edge(CellId::new(3), CellId::new(0))
            .bidirectional(CellId::new(1), CellId::new(3))
            .edge(CellId::new(0), CellId::new(4))
            .edge(CellId::new(4), CellId::new(3))
            .bidirectional(CellId::new(0), CellId::new(1));
        // The hex array with `e % 3` relay cells chained into edge `e`.
        let hex = CommGraph::hex(3, 4);
        let relays: usize = (0..hex.edge_count()).map(|e| e % 3).sum();
        let mut relayed = CommGraphBuilder::new(hex.node_count() + relays);
        let mut next = hex.node_count();
        for (e, edge) in hex.edges().iter().enumerate() {
            let mut from = edge.src;
            for _ in 0..e % 3 {
                relayed.edge(from, CellId::new(next));
                from = CellId::new(next);
                next += 1;
            }
            relayed.edge(from, edge.dst);
        }
        let graphs = [
            CommGraph::linear(1),
            CommGraph::linear(7),
            CommGraph::ring(5),
            CommGraph::mesh(1, 6),
            CommGraph::mesh(4, 3),
            CommGraph::torus(3, 4),
            hex.clone(),
            CommGraph::complete_binary_tree(4),
            custom.build(),
            CommGraphBuilder::new(3).build(),
            relayed.build(),
        ];
        for g in &graphs {
            for cell in g.cells() {
                let scan = |keep: &dyn Fn(&CommEdge) -> bool| -> Vec<usize> {
                    (0..g.edge_count())
                        .filter(|&e| keep(&g.edges()[e]))
                        .collect()
                };
                let topo = g.topology();
                assert_eq!(
                    g.out_edge_ids(cell),
                    scan(&|e| e.src == cell),
                    "{topo:?} {cell}"
                );
                assert_eq!(
                    g.in_edge_ids(cell),
                    scan(&|e| e.dst == cell),
                    "{topo:?} {cell}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn builder_rejects_self_loop() {
        let mut b = CommGraphBuilder::new(2);
        b.edge(CellId::new(1), CellId::new(1));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn grid_id_checks_bounds() {
        let g = CommGraph::mesh(2, 2);
        let _ = g.grid_id(2, 0);
    }
}
