//! Clock distribution trees (assumption A4).
//!
//! A clock for a clocked processor array is distributed by a rooted
//! binary tree `CLK` laid out in the plane; a cell of `COMM` can be
//! clocked iff it is also a node of `CLK`. This module provides the
//! tree structure itself: node positions, physical wire lengths, the
//! cell ↔ node attachment, and the path metrics the two skew models
//! consume — the *difference* metric `d` (A9) and the *summation*
//! metric `s` (A10/A11), both defined through the nearest common
//! ancestor.
//!
//! It also implements Lemma 5: every binary tree has an edge whose
//! removal splits any marked subset of nodes no worse than 2⁄3 : 1⁄3 —
//! the combinatorial step of the Section V-B lower bound.

use array_layout::geom::Point;
use array_layout::graph::CellId;
use sim_faults::{BufferFault, FaultPlan};
use std::fmt;

/// Identifier of one node of a [`ClockTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node id from a raw index.
    #[must_use]
    pub fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// The raw dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A rooted binary clock-distribution tree laid out in the plane.
///
/// Wire lengths are physical lengths in cell-pitch units; by default
/// an edge is as long as the rectilinear distance between its
/// endpoints, but builders may stretch edges (modelling routing
/// detours or deliberate delay-tuning, as in Lemma 1's equalized
/// H-tree).
///
/// # Examples
///
/// ```
/// use clock_tree::tree::ClockTreeBuilder;
/// use array_layout::geom::Point;
/// use array_layout::graph::CellId;
///
/// let mut b = ClockTreeBuilder::new(Point::new(0.0, 0.0));
/// let left = b.add_child(b.root(), Point::new(-1.0, 0.0), None);
/// let right = b.add_child(b.root(), Point::new(1.0, 0.0), None);
/// b.attach_cell(left, CellId::new(0));
/// b.attach_cell(right, CellId::new(1));
/// let tree = b.build();
/// assert_eq!(tree.summation_distance(CellId::new(0), CellId::new(1)), 2.0);
/// assert_eq!(tree.difference_distance(CellId::new(0), CellId::new(1)), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ClockTree {
    positions: Vec<Point>,
    parent: Vec<Option<NodeId>>,
    children: Vec<Children>,
    wire_len: Vec<f64>,
    cell_of: Vec<Option<CellId>>,
    node_of_cell: Vec<Option<NodeId>>,
    root_dist: Vec<f64>,
    depth: Vec<usize>,
}

/// One node's children, inline: CLK is binary (A4), so two slots
/// always suffice.
#[derive(Debug, Clone, Copy)]
struct Children {
    ids: [NodeId; 2],
    len: u8,
}

impl Children {
    const NONE: Children = Children {
        ids: [NodeId(0); 2],
        len: 0,
    };

    fn as_slice(&self) -> &[NodeId] {
        &self.ids[..usize::from(self.len)]
    }
}

impl ClockTree {
    /// The root node.
    #[must_use]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes in the tree.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len()).map(NodeId)
    }

    /// Position of `node` in the plane.
    #[must_use]
    pub fn position(&self, node: NodeId) -> Point {
        self.positions[node.index()]
    }

    /// Parent of `node`, or `None` for the root.
    #[must_use]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// Children of `node` (at most two).
    #[must_use]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        self.children[node.index()].as_slice()
    }

    /// Physical length of the wire from `node` to its parent
    /// (0 for the root).
    #[must_use]
    pub fn wire_length(&self, node: NodeId) -> f64 {
        self.wire_len[node.index()]
    }

    /// The cell clocked at `node`, if any.
    #[must_use]
    pub fn cell(&self, node: NodeId) -> Option<CellId> {
        self.cell_of[node.index()]
    }

    /// The tree node that clocks `cell`, if the cell is attached.
    #[must_use]
    pub fn node_of_cell(&self, cell: CellId) -> Option<NodeId> {
        self.node_of_cell.get(cell.index()).copied().flatten()
    }

    /// Physical distance from the root to `node` along the tree.
    #[must_use]
    pub fn root_distance(&self, node: NodeId) -> f64 {
        self.root_dist[node.index()]
    }

    /// Number of edges from the root to `node`.
    #[must_use]
    pub fn depth(&self, node: NodeId) -> usize {
        self.depth[node.index()]
    }

    /// Length of the longest root-to-node path: the `P` of assumption
    /// A6 (equipotential distribution time is `≥ α · P`).
    #[must_use]
    pub fn max_root_distance(&self) -> f64 {
        self.root_dist.iter().copied().fold(0.0, f64::max)
    }

    /// Total wire length of the tree (layout-area proxy for Lemma 1).
    #[must_use]
    pub fn total_wire_length(&self) -> f64 {
        self.wire_len.iter().sum()
    }

    /// Nearest common ancestor of two nodes.
    #[must_use]
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut a, mut b) = (a, b);
        while self.depth(a) > self.depth(b) {
            a = self.parent(a).expect("deeper node has a parent");
        }
        while self.depth(b) > self.depth(a) {
            b = self.parent(b).expect("deeper node has a parent");
        }
        while a != b {
            a = self.parent(a).expect("non-root while walking up");
            b = self.parent(b).expect("non-root while walking up");
        }
        a
    }

    /// The *summation* metric `s` between two cells: the physical
    /// length of the tree path connecting their nodes — the sum of
    /// both cells' distances to their nearest common ancestor
    /// (assumptions A10/A11, Fig. 2).
    ///
    /// # Panics
    ///
    /// Panics if either cell is not attached to the tree.
    #[must_use]
    pub fn summation_distance(&self, a: CellId, b: CellId) -> f64 {
        let (na, nb) = (self.require_node(a), self.require_node(b));
        let l = self.lca(na, nb);
        (self.root_distance(na) - self.root_distance(l))
            + (self.root_distance(nb) - self.root_distance(l))
    }

    /// The *difference* metric `d` between two cells: the positive
    /// difference of their root distances (assumption A9, Fig. 1).
    ///
    /// # Panics
    ///
    /// Panics if either cell is not attached to the tree.
    #[must_use]
    pub fn difference_distance(&self, a: CellId, b: CellId) -> f64 {
        let (na, nb) = (self.require_node(a), self.require_node(b));
        (self.root_distance(na) - self.root_distance(nb)).abs()
    }

    fn require_node(&self, cell: CellId) -> NodeId {
        self.node_of_cell(cell)
            .unwrap_or_else(|| panic!("cell {cell} is not attached to the clock tree"))
    }

    /// Ids of all attached cells.
    #[must_use]
    pub fn attached_cells(&self) -> Vec<CellId> {
        let mut cells: Vec<CellId> = self.cell_of.iter().copied().flatten().collect();
        cells.sort_unstable();
        cells
    }

    /// Number of buffers needed on the tree when buffers are inserted
    /// every `spacing` length units along every edge (assumption A7).
    ///
    /// # Panics
    ///
    /// Panics if `spacing` is not positive.
    #[must_use]
    pub fn buffer_count(&self, spacing: f64) -> usize {
        assert!(spacing > 0.0, "buffer spacing must be positive");
        self.wire_len
            .iter()
            .map(|&len| (len / spacing).floor() as usize)
            .sum()
    }

    /// Longest wire run without a buffer when buffers are inserted
    /// every `spacing` units; this bounds the per-event distribution
    /// step of a pipelined clock (assumption A7's constant τ).
    ///
    /// # Panics
    ///
    /// Panics if `spacing` is not positive.
    #[must_use]
    pub fn max_unbuffered_run(&self, spacing: f64) -> f64 {
        assert!(spacing > 0.0, "buffer spacing must be positive");
        self.wire_len
            .iter()
            .map(|&len| {
                let segments = (len / spacing).ceil().max(1.0);
                len / segments
            })
            .fold(0.0, f64::max)
    }

    /// Returns a copy of the tree with every *cell-bearing* node's
    /// parent wire stretched so that all attached cells lie at the
    /// same distance from the root (Lemma 1's delay tuning).
    ///
    /// The stretch models a routing wiggle; positions are unchanged.
    /// The result makes the difference metric `d` zero for every pair
    /// of cells.
    #[must_use]
    pub fn equalized(&self) -> ClockTree {
        let target = self
            .cell_of
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .map(|(i, _)| self.root_dist[i])
            .fold(0.0, f64::max);
        let mut out = self.clone();
        for i in 0..out.positions.len() {
            if out.cell_of[i].is_some() {
                let slack = target - self.root_dist[i];
                if slack > 0.0 {
                    out.wire_len[i] += slack;
                }
            }
        }
        out.recompute_caches();
        out
    }

    /// Lemma 5: finds an edge (identified by its child node) whose
    /// removal splits the tree into two parts, each containing at most
    /// ⌈2·|M|/3⌉ of the marked nodes `M`.
    ///
    /// Returns the child endpoint of the separator edge, together with
    /// the number of marked nodes inside that child's subtree.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two nodes are marked.
    #[must_use]
    pub fn separator_edge(&self, marked: &[NodeId]) -> (NodeId, usize) {
        assert!(marked.len() >= 2, "Lemma 5 requires at least two marked nodes");
        let total = marked.len();
        let mut in_subtree = vec![0usize; self.node_count()];
        for &m in marked {
            in_subtree[m.index()] += 1;
        }
        // Children come after parents in builder order, so a reverse
        // scan accumulates subtree counts bottom-up.
        for i in (1..self.node_count()).rev() {
            let p = self.parent[i].expect("non-root has parent");
            in_subtree[p.index()] += in_subtree[i];
        }
        // Walk down from the root, always descending into the child
        // whose subtree holds the most marked nodes, until the current
        // subtree holds ≤ 2/3 of them. The classic argument guarantees
        // this stops at a valid separator.
        let limit = (2 * total).div_ceil(3);
        let mut node = self.root();
        loop {
            if self.children(node).is_empty() {
                break;
            }
            // Always step off the root (the root has no parent edge);
            // afterwards stop as soon as the subtree is small enough.
            if node != self.root() && in_subtree[node.index()] <= limit {
                break;
            }
            node = self
                .children(node)
                .iter()
                .copied()
                .max_by(|a, b| in_subtree[a.index()].cmp(&in_subtree[b.index()]))
                .expect("children non-empty");
        }
        // `node` is the first node on the heavy path whose subtree
        // already satisfies the bound; its parent edge is a separator
        // (the complement holds total - in_subtree ≤ 2/3·total because
        // the parent's subtree exceeded the limit and `node` is its
        // heaviest child, so `node` holds ≥ (limit)/2 ≥ total/3).
        let count = in_subtree[node.index()];
        (node, count)
    }

    /// All cells attached at `node` or anywhere below it, sorted.
    #[must_use]
    pub fn subtree_cells(&self, node: NodeId) -> Vec<CellId> {
        let mut cells = Vec::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            if let Some(c) = self.cell(n) {
                cells.push(c);
            }
            stack.extend_from_slice(self.children(n));
        }
        cells.sort_unstable();
        cells
    }

    /// Applies a fault plan's buffer faults to the tree's repeaters
    /// (assumption A7: a buffer every `spacing` length units along
    /// every edge, the same convention as [`ClockTree::buffer_count`]).
    ///
    /// A **dead** buffer stops the clock cold: every cell attached in
    /// the subtree hanging off that buffer's edge loses its clock and
    /// is reported in [`BufferFaultReport::dead_cells`]. A **degraded**
    /// buffer still propagates but drives its wire run `extra_frac`
    /// slower, modelled as a stretch of that run (`extra_frac ·
    /// spacing` added to the edge); the returned tree carries the
    /// stretches so the existing skew machinery ([`crate::skew`])
    /// re-attributes the damage with no special cases.
    ///
    /// Buffer sites are identified by `(edge child node, slot index)`,
    /// so the same plan always fails the same buffers regardless of
    /// query order or thread count.
    ///
    /// # Panics
    ///
    /// Panics if `spacing` is not positive.
    #[must_use]
    pub fn with_buffer_faults(&self, plan: &FaultPlan, spacing: f64) -> BufferFaultReport {
        assert!(spacing > 0.0, "buffer spacing must be positive");
        let mut out = self.clone();
        let mut dead_cells = Vec::new();
        let (mut dead_buffers, mut degraded_buffers) = (0u64, 0u64);
        if plan.is_enabled() {
            let mut clock_dead = vec![false; self.node_count()];
            for n in self.nodes() {
                let buffers = (self.wire_length(n) / spacing).floor() as u64;
                let mut edge_dead = false;
                let mut stretch = 0.0;
                for k in 0..buffers {
                    let site = ((n.index() as u64) << 20) ^ k;
                    match plan.buffer_fault(site) {
                        Some(BufferFault::Dead) => {
                            dead_buffers += 1;
                            edge_dead = true;
                        }
                        Some(BufferFault::Degraded { extra_frac }) => {
                            degraded_buffers += 1;
                            stretch += extra_frac * spacing;
                        }
                        None => {}
                    }
                }
                if edge_dead {
                    clock_dead[n.index()] = true;
                } else if stretch > 0.0 {
                    out.wire_len[n.index()] += stretch;
                }
            }
            // A node loses its clock iff its own edge died or any
            // ancestor edge did. The builder guarantees parents precede
            // children in node order, so one forward pass propagates
            // death through the *actual* subtree structure — correct on
            // any shape (caterpillar rows, lopsided quadrants), and
            // linear even when dead regions nest or chains are deep.
            for i in 1..self.node_count() {
                let p = self.parent[i].expect("non-root nodes have parents");
                if clock_dead[p.index()] {
                    clock_dead[i] = true;
                }
            }
            for n in self.nodes() {
                if clock_dead[n.index()] {
                    if let Some(c) = self.cell(n) {
                        dead_cells.push(c);
                    }
                }
            }
            dead_cells.sort_unstable();
            out.recompute_caches();
        }
        BufferFaultReport {
            tree: out,
            dead_cells,
            dead_buffers,
            degraded_buffers,
        }
    }

    fn recompute_caches(&mut self) {
        for i in 0..self.positions.len() {
            match self.parent[i] {
                None => {
                    self.root_dist[i] = 0.0;
                    self.depth[i] = 0;
                }
                Some(p) => {
                    self.root_dist[i] = self.root_dist[p.index()] + self.wire_len[i];
                    self.depth[i] = self.depth[p.index()] + 1;
                }
            }
        }
    }

    /// Structural validation: non-negative wire lengths and consistent
    /// cell attachment. (Binary arity holds by construction:
    /// [`ClockTreeBuilder::add_child`] refuses a third child.)
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        for n in self.nodes() {
            if self.wire_length(n) < 0.0 {
                return Err(format!("node {n} has negative wire length"));
            }
        }
        for (cell_idx, node) in self.node_of_cell.iter().enumerate() {
            if let Some(n) = node {
                if self.cell_of[n.index()] != Some(CellId::new(cell_idx)) {
                    return Err(format!(
                        "cell {cell_idx} maps to node {n} which does not map back"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// What a fault plan did to a tree's clock buffers
/// ([`ClockTree::with_buffer_faults`]).
#[derive(Debug, Clone)]
pub struct BufferFaultReport {
    /// The tree with degraded buffers' wire stretches applied. Dead
    /// edges are left structurally intact — consult
    /// [`BufferFaultReport::dead_cells`] for who lost the clock.
    pub tree: ClockTree,
    /// Cells below a dead buffer, sorted and deduplicated: they never
    /// see a clock edge at all.
    pub dead_cells: Vec<CellId>,
    /// Number of buffers that failed dead.
    pub dead_buffers: u64,
    /// Number of buffers that still work but drive slowly.
    pub degraded_buffers: u64,
}

impl BufferFaultReport {
    /// Whether `cell` lost its clock to a dead buffer.
    #[must_use]
    pub fn is_dead(&self, cell: CellId) -> bool {
        self.dead_cells.binary_search(&cell).is_ok()
    }

    /// Whether any attached cell lost its clock.
    #[must_use]
    pub fn any_dead(&self) -> bool {
        !self.dead_cells.is_empty()
    }
}

/// Incremental builder for [`ClockTree`].
///
/// Nodes must be added parent-before-child (the builder hands out ids
/// in construction order), which every natural tree construction
/// satisfies.
#[derive(Debug, Clone)]
pub struct ClockTreeBuilder {
    positions: Vec<Point>,
    parent: Vec<Option<NodeId>>,
    children: Vec<Children>,
    wire_len: Vec<f64>,
    cell_of: Vec<Option<CellId>>,
}

impl ClockTreeBuilder {
    /// Starts a tree whose root sits at `root_pos`.
    #[must_use]
    pub fn new(root_pos: Point) -> Self {
        ClockTreeBuilder {
            positions: vec![root_pos],
            parent: vec![None],
            children: vec![Children::NONE],
            wire_len: vec![0.0],
            cell_of: vec![None],
        }
    }

    /// The root node id.
    #[must_use]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Adds a child of `parent` at `pos`. The wire length defaults to
    /// the rectilinear (Manhattan) distance between the endpoints;
    /// pass `Some(len)` to model a routed detour or tuned delay line
    /// (must be at least the rectilinear distance).
    ///
    /// # Panics
    ///
    /// Panics if `parent` already has two children, if `parent` is out
    /// of range, or if an explicit length is shorter than the
    /// rectilinear distance.
    pub fn add_child(&mut self, parent: NodeId, pos: Point, length: Option<f64>) -> NodeId {
        assert!(parent.index() < self.positions.len(), "parent out of range");
        assert!(
            self.children[parent.index()].len < 2,
            "node {parent} already has two children (CLK is binary)"
        );
        let direct = self.positions[parent.index()].manhattan(pos);
        let len = match length {
            Some(l) => {
                assert!(
                    l + 1e-9 >= direct,
                    "explicit wire length {l} shorter than rectilinear distance {direct}"
                );
                l
            }
            None => direct,
        };
        let id = NodeId(self.positions.len());
        self.positions.push(pos);
        self.parent.push(Some(parent));
        self.children.push(Children::NONE);
        self.wire_len.push(len);
        self.cell_of.push(None);
        let siblings = &mut self.children[parent.index()];
        siblings.ids[usize::from(siblings.len)] = id;
        siblings.len += 1;
        id
    }

    /// Declares that `node` clocks `cell` (the cell is a node of CLK,
    /// assumption A4).
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range or already clocks a cell.
    pub fn attach_cell(&mut self, node: NodeId, cell: CellId) -> &mut Self {
        assert!(node.index() < self.positions.len(), "node out of range");
        assert!(
            self.cell_of[node.index()].is_none(),
            "node {node} already clocks a cell"
        );
        self.cell_of[node.index()] = Some(cell);
        self
    }

    /// Finishes the tree, computing distance caches.
    ///
    /// # Panics
    ///
    /// Panics if two nodes claim the same cell.
    #[must_use]
    pub fn build(self) -> ClockTree {
        let max_cell = self
            .cell_of
            .iter()
            .flatten()
            .map(|c| c.index())
            .max()
            .map_or(0, |m| m + 1);
        let mut node_of_cell = vec![None; max_cell];
        for (i, c) in self.cell_of.iter().enumerate() {
            if let Some(cell) = c {
                assert!(
                    node_of_cell[cell.index()].is_none(),
                    "cell {cell} attached to two clock nodes"
                );
                node_of_cell[cell.index()] = Some(NodeId(i));
            }
        }
        let n = self.positions.len();
        let mut tree = ClockTree {
            positions: self.positions,
            parent: self.parent,
            children: self.children,
            wire_len: self.wire_len,
            cell_of: self.cell_of,
            node_of_cell,
            root_dist: vec![0.0; n],
            depth: vec![0; n],
        };
        tree.recompute_caches();
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array_layout::geom::approx_eq;

    /// A small fixture: root with two subtrees of different depths.
    ///
    /// ```text
    ///        root(0,0)
    ///        /        \
    ///   a(-2,0)      b(2,0)
    ///    /               \
    /// a1(-2,-2)        b1(4,0)
    /// ```
    fn fixture() -> ClockTree {
        let mut b = ClockTreeBuilder::new(Point::new(0.0, 0.0));
        let a = b.add_child(b.root(), Point::new(-2.0, 0.0), None);
        let bb = b.add_child(b.root(), Point::new(2.0, 0.0), None);
        let a1 = b.add_child(a, Point::new(-2.0, -2.0), None);
        let b1 = b.add_child(bb, Point::new(4.0, 0.0), None);
        b.attach_cell(a1, CellId::new(0));
        b.attach_cell(b1, CellId::new(1));
        b.attach_cell(a, CellId::new(2));
        b.build()
    }

    #[test]
    fn root_distances_accumulate() {
        let t = fixture();
        let n0 = t.node_of_cell(CellId::new(0)).unwrap();
        let n1 = t.node_of_cell(CellId::new(1)).unwrap();
        assert!(approx_eq(t.root_distance(n0), 4.0));
        assert!(approx_eq(t.root_distance(n1), 4.0));
        assert!(approx_eq(t.max_root_distance(), 4.0));
        assert_eq!(t.depth(n0), 2);
    }

    #[test]
    fn metrics_via_lca() {
        let t = fixture();
        let (c0, c1, c2) = (CellId::new(0), CellId::new(1), CellId::new(2));
        // c0 and c1 meet at the root: s = 4 + 4, d = 0.
        assert!(approx_eq(t.summation_distance(c0, c1), 8.0));
        assert!(approx_eq(t.difference_distance(c0, c1), 0.0));
        // c0 and c2: c2 is c0's ancestor's node: s = 2, d = 2.
        assert!(approx_eq(t.summation_distance(c0, c2), 2.0));
        assert!(approx_eq(t.difference_distance(c0, c2), 2.0));
    }

    #[test]
    fn lca_of_node_with_itself() {
        let t = fixture();
        let n = t.node_of_cell(CellId::new(0)).unwrap();
        assert_eq!(t.lca(n, n), n);
        assert!(approx_eq(t.summation_distance(CellId::new(0), CellId::new(0)), 0.0));
    }

    #[test]
    fn builder_rejects_third_child() {
        let mut b = ClockTreeBuilder::new(Point::origin());
        b.add_child(b.root(), Point::new(1.0, 0.0), None);
        b.add_child(b.root(), Point::new(0.0, 1.0), None);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut b2 = b.clone();
            b2.add_child(b2.root(), Point::new(-1.0, 0.0), None);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn builder_rejects_short_explicit_length() {
        let mut b = ClockTreeBuilder::new(Point::origin());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut b2 = b.clone();
            b2.add_child(b2.root(), Point::new(3.0, 0.0), Some(1.0));
        }));
        assert!(result.is_err());
        // A stretched length is fine.
        let c = b.add_child(b.root(), Point::new(3.0, 0.0), Some(5.0));
        let t = b.build();
        assert!(approx_eq(t.wire_length(c), 5.0));
    }

    #[test]
    fn equalized_zeroes_difference_metric() {
        let mut b = ClockTreeBuilder::new(Point::origin());
        let near = b.add_child(b.root(), Point::new(1.0, 0.0), None);
        let far_mid = b.add_child(b.root(), Point::new(5.0, 0.0), None);
        let far = b.add_child(far_mid, Point::new(9.0, 0.0), None);
        b.attach_cell(near, CellId::new(0));
        b.attach_cell(far, CellId::new(1));
        let t = b.build();
        assert!(t.difference_distance(CellId::new(0), CellId::new(1)) > 0.0);
        let eq = t.equalized();
        assert!(approx_eq(
            eq.difference_distance(CellId::new(0), CellId::new(1)),
            0.0
        ));
        // Summation distance can only grow under equalization.
        assert!(
            eq.summation_distance(CellId::new(0), CellId::new(1))
                >= t.summation_distance(CellId::new(0), CellId::new(1))
        );
        assert!(eq.validate().is_ok());
    }

    #[test]
    fn buffer_counts_scale_with_spacing() {
        let t = fixture();
        // Total wire = 2 + 2 + 2 + 2 = 8.
        assert!(approx_eq(t.total_wire_length(), 8.0));
        assert_eq!(t.buffer_count(1.0), 8);
        assert_eq!(t.buffer_count(3.0), 0);
        assert!(t.max_unbuffered_run(1.0) <= 1.0 + 1e-9);
        assert!(approx_eq(t.max_unbuffered_run(10.0), 2.0));
    }

    #[test]
    fn separator_respects_two_thirds_bound() {
        // A path of 9 nodes, all marked: Lemma 5 must find an edge
        // splitting them no worse than 6 : 3.
        let mut b = ClockTreeBuilder::new(Point::origin());
        let mut prev = b.root();
        for i in 1..9 {
            prev = b.add_child(prev, Point::new(i as f64, 0.0), None);
        }
        let t = b.build();
        let marked: Vec<NodeId> = t.nodes().collect();
        let (child, inside) = t.separator_edge(&marked);
        assert!(child != t.root());
        let outside = marked.len() - inside;
        let limit = (2 * marked.len()).div_ceil(3);
        assert!(inside <= limit, "inside {inside} > limit {limit}");
        assert!(outside <= limit, "outside {outside} > limit {limit}");
    }

    #[test]
    fn separator_on_balanced_tree() {
        // Complete binary tree of depth 4 (31 nodes); mark the leaves.
        let mut b = ClockTreeBuilder::new(Point::origin());
        let mut frontier = vec![b.root()];
        for level in 1..5 {
            let mut next = Vec::new();
            for (i, &p) in frontier.iter().enumerate() {
                let x = (i * 2) as f64;
                next.push(b.add_child(p, Point::new(x, level as f64), None));
                next.push(b.add_child(p, Point::new(x + 1.0, level as f64), None));
            }
            frontier = next;
        }
        let t = b.build();
        let (child, inside) = t.separator_edge(&frontier);
        let total = frontier.len();
        let limit = (2 * total).div_ceil(3);
        assert!(inside <= limit);
        assert!(total - inside <= limit);
        assert!(t.depth(child) >= 1);
    }

    #[test]
    fn validate_passes_on_fixture() {
        assert!(fixture().validate().is_ok());
    }

    #[test]
    fn attached_cells_sorted() {
        let t = fixture();
        assert_eq!(
            t.attached_cells(),
            vec![CellId::new(0), CellId::new(1), CellId::new(2)]
        );
    }

    #[test]
    fn subtree_cells_collects_the_hanging_cells() {
        let t = fixture();
        // Node `a` clocks cell 2 and its child `a1` clocks cell 0.
        let a = t.node_of_cell(CellId::new(2)).unwrap();
        assert_eq!(t.subtree_cells(a), vec![CellId::new(0), CellId::new(2)]);
        assert_eq!(t.subtree_cells(t.root()), t.attached_cells());
    }

    #[test]
    fn disabled_plan_leaves_buffers_untouched() {
        use sim_faults::FaultPlan;
        let t = fixture();
        let r = t.with_buffer_faults(&FaultPlan::disabled(), 1.0);
        assert!(!r.any_dead());
        assert_eq!((r.dead_buffers, r.degraded_buffers), (0, 0));
        for n in t.nodes() {
            assert!(approx_eq(r.tree.wire_length(n), t.wire_length(n)));
        }
    }

    #[test]
    fn buffer_faults_are_deterministic() {
        use sim_faults::{FaultPlan, FaultRates};
        let t = fixture();
        let plan = FaultPlan::new(11, 3, FaultRates::uniform(0.3));
        let (a, b) = (t.with_buffer_faults(&plan, 0.5), t.with_buffer_faults(&plan, 0.5));
        assert_eq!(a.dead_cells, b.dead_cells);
        assert_eq!(a.dead_buffers, b.dead_buffers);
        assert_eq!(a.degraded_buffers, b.degraded_buffers);
        for n in t.nodes() {
            assert!(approx_eq(a.tree.wire_length(n), b.tree.wire_length(n)));
        }
    }

    #[test]
    fn dead_buffers_kill_their_subtrees() {
        use sim_faults::{FaultPlan, FaultRates};
        let t = fixture();
        let rates = FaultRates {
            buffer_dead: 1.0,
            ..FaultRates::none()
        };
        let r = t.with_buffer_faults(&FaultPlan::new(5, 0, rates), 1.0);
        // Every edge carries buffers (all lengths are 2, spacing 1),
        // so every attached cell sits below a dead buffer.
        assert_eq!(r.dead_cells, t.attached_cells());
        assert!(r.is_dead(CellId::new(1)));
        assert_eq!(r.dead_buffers, t.buffer_count(1.0) as u64);
    }

    #[test]
    fn dead_subtree_accounting_follows_structure_on_non_uniform_fanout() {
        use sim_faults::{FaultPlan, FaultRates};
        // A quadrant-shaped caterpillar: a long spine whose taps hang
        // row chains of very different lengths, plus a shallow sibling
        // branch. Depth is useless as a leaf-count proxy here — the
        // accounting must walk the actual subtree.
        let mut b = ClockTreeBuilder::new(Point::origin());
        let shallow = b.add_child(b.root(), Point::new(0.0, 4.0), None);
        b.attach_cell(shallow, CellId::new(0));
        let mut spine = b.add_child(b.root(), Point::new(4.0, 0.0), None);
        let mut next_cell = 1usize;
        for tap in 0..3 {
            let tap_node = b.add_child(spine, Point::new(4.0 + 3.0 * (tap + 1) as f64, 0.0), None);
            b.attach_cell(tap_node, CellId::new(next_cell));
            next_cell += 1;
            // Row chains of length 1, 3, 5 hanging off successive taps.
            let mut link = tap_node;
            for i in 0..(2 * tap + 1) {
                link = b.add_child(
                    link,
                    Point::new(4.0 + 3.0 * (tap + 1) as f64, 2.0 * (i + 1) as f64),
                    None,
                );
                b.attach_cell(link, CellId::new(next_cell));
                next_cell += 1;
            }
            spine = tap_node;
        }
        let t = b.build();

        for seed in [3u64, 5, 11, 17] {
            let rates = FaultRates {
                buffer_dead: 0.2,
                ..FaultRates::none()
            };
            let r = t.with_buffer_faults(&FaultPlan::new(seed, 0, rates), 1.0);
            // Brute-force ground truth: a cell is dead iff some edge on
            // its root path lost a buffer — recompute via subtree_cells
            // from every edge whose own buffers died.
            let mut expect = Vec::new();
            for n in t.nodes() {
                let buffers = (t.wire_length(n) / 1.0).floor() as u64;
                let own_dead = (0..buffers).any(|k| {
                    matches!(
                        FaultPlan::new(seed, 0, rates).buffer_fault(((n.index() as u64) << 20) ^ k),
                        Some(sim_faults::BufferFault::Dead)
                    )
                });
                if own_dead {
                    expect.extend(t.subtree_cells(n));
                }
            }
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(
                r.dead_cells, expect,
                "seed {seed}: dead set must equal subtree reachability"
            );
        }
    }

    #[test]
    fn degraded_buffers_stretch_edges_and_reattribute_skew() {
        use crate::skew::{attribute_skew, ArrivalTimes};
        use sim_faults::{FaultPlan, FaultRates};
        let t = fixture();
        let rates = FaultRates {
            buffer_degraded: 1.0,
            degrade_spread: 0.5,
            ..FaultRates::none()
        };
        let r = t.with_buffer_faults(&FaultPlan::new(5, 0, rates), 1.0);
        assert!(!r.any_dead());
        assert_eq!(r.degraded_buffers, t.buffer_count(1.0) as u64);
        assert!(r.tree.max_root_distance() > t.max_root_distance());
        // The stock skew machinery re-attributes the damage: under
        // uniform unit rates the pair skew equals the (now nonzero)
        // difference metric of the faulted tree.
        let unit = vec![1.0; r.tree.node_count()];
        let arrivals = ArrivalTimes::from_rates(&r.tree, &unit);
        let (c0, c1) = (CellId::new(0), CellId::new(1));
        let skew = arrivals.skew(&r.tree, c0, c1);
        assert!(approx_eq(skew, r.tree.difference_distance(c0, c1)));
        let breakdown = attribute_skew(&r.tree, &unit, c0, c1);
        assert!(approx_eq(breakdown.magnitude(), skew));
    }
}
