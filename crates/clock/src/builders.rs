//! Clock-tree constructions for the layouts the paper studies.
//!
//! * [`htree`] — recursive spatial bisection over the cell positions;
//!   on a `2^k × 2^k` grid this is exactly the H-tree of Fig. 3, whose
//!   leaves are equidistant from the root (Lemma 1 / Theorem 2).
//! * [`spine`] — the Fig. 4(b) scheme: a single clock wire running
//!   along a one-dimensional array, each cell tapped in order. Under
//!   the summation model neighbouring cells are a constant tree-path
//!   apart (Theorem 3). Works for straight, folded (Fig. 5) and
//!   comb-shaped (Fig. 6) layouts by following the cell order.
//! * [`serpentine`] — a spine threaded boustrophedon through a 2-D
//!   grid: a natural but *losing* strategy under the summation model
//!   (neighbouring rows are ~2·cols apart on the tree), used as a
//!   contrast in experiment E4.
//! * [`comb_tree`] — trunk along the first row, one tooth per column:
//!   another natural 2-D strategy; communicating cells in adjacent
//!   columns are far apart along the tree.
//! * [`mirror_tree`] — a clock tree with the same shape as a binary
//!   tree COMM graph, distributing clock along the data paths
//!   (Section VIII's concluding remark).

use crate::tree::{ClockTree, ClockTreeBuilder, NodeId};
use array_layout::geom::Point;
use array_layout::graph::{CellId, CommGraph, Topology};
use array_layout::layout::Layout;

/// Builds an H-tree-style clock tree over all cells of `comm` at their
/// positions in `layout`, by recursive spatial bisection: each internal
/// node sits at the centre of its group's bounding box and splits the
/// group across its longer dimension.
///
/// On square power-of-two grids the result is the exact H-tree of
/// Fig. 3(b) with all leaves equidistant from the root. On other
/// bounded-aspect-ratio layouts leaves are *approximately* equidistant;
/// apply [`ClockTree::equalized`] to tune them exactly (Lemma 1).
///
/// # Panics
///
/// Panics if the layout and graph disagree on cell count, or the array
/// is empty.
#[must_use]
pub fn htree(comm: &CommGraph, layout: &Layout) -> ClockTree {
    assert_eq!(
        layout.positions().len(),
        comm.node_count(),
        "layout does not match communication graph"
    );
    assert!(comm.node_count() > 0, "cannot clock an empty array");
    let mut cells: Vec<(CellId, Point)> = comm
        .cells()
        .map(|c| (c, layout.position(c.index())))
        .collect();
    let bbox_center = |group: &[(CellId, Point)]| -> Point {
        let r = array_layout::geom::Rect::bounding(group.iter().map(|&(_, p)| p))
            .expect("group non-empty");
        r.min().midpoint(r.max())
    };
    let root_pos = bbox_center(&cells);
    let mut builder = ClockTreeBuilder::new(root_pos);
    // Iterative recursion to avoid call-stack depth limits on large
    // arrays: a work list of (parent node, group slice bounds).
    struct Task {
        parent: NodeId,
        lo: usize,
        hi: usize,
    }
    let mut tasks = vec![Task {
        parent: builder.root(),
        lo: 0,
        hi: cells.len(),
    }];
    // The root task is special: the root node itself serves the whole
    // group, so we split the group and hang both halves off the root
    // rather than adding a redundant child. To keep the code uniform we
    // instead treat every task as "split this group under this node".
    while let Some(Task { parent, lo, hi }) = tasks.pop() {
        let group = &mut cells[lo..hi];
        if group.len() == 1 {
            let (cell, pos) = group[0];
            // The parent node was created at this group's bbox centre,
            // which for a singleton *is* the cell position; attach
            // directly.
            let _ = pos;
            builder.attach_cell(parent, cell);
            continue;
        }
        // Split across the longer dimension of the bounding box: the
        // lower half is the `mid` least cells in `(x, y, cell)` order, or
        // `(y, x, cell)`. The cell id makes that order total, so the
        // half is one set whatever the order inside the group, and
        // neither the children's centres (but for the sign of a zero
        // coordinate) nor their own splits depend on that order: a
        // selection builds the tree a stable sort from id order did.
        let r = array_layout::geom::Rect::bounding(group.iter().map(|&(_, p)| p))
            .expect("group non-empty");
        let mid = group.len() / 2;
        if r.width() >= r.height() {
            group.select_nth_unstable_by(mid, |a, b| {
                (a.1.x.total_cmp(&b.1.x))
                    .then(a.1.y.total_cmp(&b.1.y))
                    .then(a.0.cmp(&b.0))
            });
        } else {
            group.select_nth_unstable_by(mid, |a, b| {
                (a.1.y.total_cmp(&b.1.y))
                    .then(a.1.x.total_cmp(&b.1.x))
                    .then(a.0.cmp(&b.0))
            });
        }
        let (left, right) = (lo..lo + mid, lo + mid..hi);
        for range in [left, right] {
            let child_group = &cells[range.clone()];
            let center = bbox_center(child_group);
            let child = builder.add_child(parent, center, None);
            tasks.push(Task {
                parent: child,
                lo: range.start,
                hi: range.end,
            });
        }
    }
    builder.build()
}

/// Builds the Fig. 4(b) spine clock: a single wire running past the
/// cells of a one-dimensional array in index order, with the root at
/// cell 0 (the host end). Each spine node clocks its cell; the tree is
/// a path, so consecutive cells are exactly one cell pitch apart on
/// the tree no matter how long the array is (Theorem 3).
///
/// Works with any layout of a linear array — straight (Fig. 4), folded
/// (Fig. 5), or comb (Fig. 6) — because it follows the cells in array
/// order.
///
/// # Panics
///
/// Panics unless `comm` is a [`Topology::Linear`] array matching
/// `layout`.
#[must_use]
pub fn spine(comm: &CommGraph, layout: &Layout) -> ClockTree {
    let Topology::Linear { n } = comm.topology() else {
        panic!("spine clocking requires a linear array");
    };
    assert_eq!(layout.positions().len(), n, "layout does not match array");
    spine_through(
        (0..n).map(|i| (CellId::new(i), layout.position(i))),
    )
}

/// Builds a spine clock for a **ring** laid out folded
/// ([`Layout::folded_ring`]): the spine visits cells in the
/// interleaved order `0, n−1, 1, n−2, 2, …`, zig-zagging across the
/// fold. Every ring link — including the wrap edge — is then at most
/// two spine hops from its partner, so the summation-model skew is a
/// constant independent of `n`: Theorem 3 extended to rings.
///
/// # Panics
///
/// Panics unless `comm` is a [`Topology::Ring`] matching `layout`.
#[must_use]
pub fn spine_ring(comm: &CommGraph, layout: &Layout) -> ClockTree {
    let Topology::Ring { n } = comm.topology() else {
        panic!("spine_ring requires a ring array");
    };
    assert_eq!(layout.positions().len(), n, "layout does not match array");
    let order = (0..n).map(|pos| {
        let i = if pos % 2 == 0 { pos / 2 } else { n - 1 - pos / 2 };
        (CellId::new(i), layout.position(i))
    });
    spine_through(order)
}

/// Builds a spine clock threaded through an explicit cell order.
/// The first cell hosts the root.
///
/// # Panics
///
/// Panics if the order is empty.
#[must_use]
pub fn spine_through<I>(order: I) -> ClockTree
where
    I: IntoIterator<Item = (CellId, Point)>,
{
    let mut iter = order.into_iter();
    let (first_cell, first_pos) = iter.next().expect("spine needs at least one cell");
    let mut builder = ClockTreeBuilder::new(first_pos);
    builder.attach_cell(builder.root(), first_cell);
    let mut prev = builder.root();
    for (cell, pos) in iter {
        let node = builder.add_child(prev, pos, None);
        builder.attach_cell(node, cell);
        prev = node;
    }
    builder.build()
}

/// Builds a spine threaded boustrophedon (row by row, alternating
/// direction) through a grid array — the natural "snake" a designer
/// might route, and a strategy that the summation model punishes:
/// vertically adjacent cells are up to `2·cols − 1` apart on the tree.
///
/// # Panics
///
/// Panics unless `comm` is grid-like (mesh/torus/hex) and matches
/// `layout`.
#[must_use]
pub fn serpentine(comm: &CommGraph, layout: &Layout) -> ClockTree {
    let (rows, cols) = comm
        .grid_dims()
        .expect("serpentine requires a grid-like topology");
    assert_eq!(
        layout.positions().len(),
        comm.node_count(),
        "layout does not match communication graph"
    );
    let order = (0..rows).flat_map(|r| {
        let make = move |c: usize| (r, c);
        let cols_iter: Box<dyn Iterator<Item = (usize, usize)>> = if r % 2 == 0 {
            Box::new((0..cols).map(make))
        } else {
            Box::new((0..cols).rev().map(make))
        };
        cols_iter
    });
    spine_through(order.map(|(r, c)| {
        let cell = comm.grid_id(r, c);
        (cell, layout.position(cell.index()))
    }))
}

/// Builds a comb-shaped clock tree over a grid: a trunk along row 0
/// and one tooth (a downward path) per column. Each trunk node has two
/// children — the next trunk node and its column's tooth — so the tree
/// is binary. Cells in adjacent columns communicate but sit on
/// different teeth, up to `2·rows + 1` apart along the tree.
///
/// # Panics
///
/// Panics unless `comm` is grid-like and matches `layout`.
#[must_use]
pub fn comb_tree(comm: &CommGraph, layout: &Layout) -> ClockTree {
    let (rows, cols) = comm
        .grid_dims()
        .expect("comb tree requires a grid-like topology");
    assert_eq!(
        layout.positions().len(),
        comm.node_count(),
        "layout does not match communication graph"
    );
    let pos_of = |r: usize, c: usize| layout.position(comm.grid_id(r, c).index());
    let mut builder = ClockTreeBuilder::new(pos_of(0, 0));
    builder.attach_cell(builder.root(), comm.grid_id(0, 0));
    let mut trunk = builder.root();
    for c in 0..cols {
        if c > 0 {
            let node = builder.add_child(trunk, pos_of(0, c), None);
            builder.attach_cell(node, comm.grid_id(0, c));
            trunk = node;
        }
        // Tooth: walk down the column from row 1.
        let mut tooth = trunk;
        for r in 1..rows {
            let node = builder.add_child(tooth, pos_of(r, c), None);
            builder.attach_cell(node, comm.grid_id(r, c));
            tooth = node;
        }
    }
    builder.build()
}

/// Builds a clock tree with the same shape as a complete-binary-tree
/// COMM graph, laid out per `layout`: clock events travel along the
/// data paths (the Section VIII construction for tree machines).
///
/// # Panics
///
/// Panics unless `comm` is a [`Topology::BinaryTree`] matching
/// `layout`.
#[must_use]
pub fn mirror_tree(comm: &CommGraph, layout: &Layout) -> ClockTree {
    let Topology::BinaryTree { .. } = comm.topology() else {
        panic!("mirror_tree requires a complete binary tree graph");
    };
    assert_eq!(
        layout.positions().len(),
        comm.node_count(),
        "layout does not match communication graph"
    );
    let n = comm.node_count();
    let mut builder = ClockTreeBuilder::new(layout.position(0));
    builder.attach_cell(builder.root(), CellId::new(0));
    let mut node_of = vec![builder.root(); n];
    // COMM node i has children 2i+1, 2i+2; visit in index order so
    // parents are placed first.
    for i in 1..n {
        let parent = node_of[(i - 1) / 2];
        let node = builder.add_child(parent, layout.position(i), None);
        builder.attach_cell(node, CellId::new(i));
        node_of[i] = node;
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use array_layout::geom::approx_eq;
    use array_layout::graph::CommGraph;
    use array_layout::layout::Layout;

    #[test]
    fn htree_on_power_of_two_grid_is_equidistant() {
        let comm = CommGraph::mesh(8, 8);
        let layout = Layout::grid(&comm);
        let tree = htree(&comm, &layout);
        assert!(tree.validate().is_ok());
        let dists: Vec<f64> = comm
            .cells()
            .map(|c| tree.root_distance(tree.node_of_cell(c).expect("attached")))
            .collect();
        let (min, max) = dists
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &d| (lo.min(d), hi.max(d)));
        assert!(
            approx_eq(min, max),
            "H-tree on 8x8 not equidistant: {min} vs {max}"
        );
    }

    #[test]
    fn htree_attaches_every_cell() {
        for (r, c) in [(1, 7), (3, 5), (4, 4), (5, 9)] {
            let comm = CommGraph::mesh(r, c);
            let layout = Layout::grid(&comm);
            let tree = htree(&comm, &layout);
            assert!(tree.validate().is_ok(), "{r}x{c}");
            assert_eq!(tree.attached_cells().len(), r * c, "{r}x{c}");
        }
    }

    #[test]
    fn htree_area_bounded_by_constant_factor() {
        // Lemma 1: the clock tree takes area no more than a constant
        // times the layout area. Total wire length is the area proxy.
        for k in [2usize, 4, 8, 16] {
            let comm = CommGraph::mesh(k, k);
            let layout = Layout::grid(&comm);
            let tree = htree(&comm, &layout);
            let ratio = tree.total_wire_length() / layout.area();
            assert!(ratio < 4.0, "k={k}: wire/area ratio {ratio}");
        }
    }

    #[test]
    fn htree_equalized_still_valid_and_equidistant() {
        let comm = CommGraph::mesh(3, 5);
        let layout = Layout::grid(&comm);
        let tree = htree(&comm, &layout).equalized();
        assert!(tree.validate().is_ok());
        let dists: Vec<f64> = comm
            .cells()
            .map(|c| tree.root_distance(tree.node_of_cell(c).expect("attached")))
            .collect();
        let (min, max) = dists
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &d| (lo.min(d), hi.max(d)));
        assert!(approx_eq(min, max), "not equidistant after tuning");
    }

    /// `htree` as it was built with a stable full sort per split: the
    /// reference the selection split must reproduce.
    fn htree_by_stable_sort(comm: &CommGraph, layout: &Layout) -> ClockTree {
        let mut cells: Vec<(CellId, Point)> = comm
            .cells()
            .map(|c| (c, layout.position(c.index())))
            .collect();
        let bbox_center = |group: &[(CellId, Point)]| -> Point {
            let r = array_layout::geom::Rect::bounding(group.iter().map(|&(_, p)| p))
                .expect("group non-empty");
            r.min().midpoint(r.max())
        };
        let mut builder = ClockTreeBuilder::new(bbox_center(&cells));
        let mut tasks = vec![(builder.root(), 0, cells.len())];
        while let Some((parent, lo, hi)) = tasks.pop() {
            let group = &mut cells[lo..hi];
            if group.len() == 1 {
                builder.attach_cell(parent, group[0].0);
                continue;
            }
            let r = array_layout::geom::Rect::bounding(group.iter().map(|&(_, p)| p))
                .expect("group non-empty");
            if r.width() >= r.height() {
                group.sort_by(|a, b| a.1.x.total_cmp(&b.1.x).then(a.1.y.total_cmp(&b.1.y)));
            } else {
                group.sort_by(|a, b| a.1.y.total_cmp(&b.1.y).then(a.1.x.total_cmp(&b.1.x)));
            }
            let mid = group.len() / 2;
            for (a, b) in [(lo, lo + mid), (lo + mid, hi)] {
                let child = builder.add_child(parent, bbox_center(&cells[a..b]), None);
                tasks.push((child, a, b));
            }
        }
        builder.build()
    }

    #[test]
    fn htree_selection_split_matches_the_stable_sort() {
        use sim_runtime::{Rng, SimRng};
        // Coordinate pools: few distinct values force coincident points
        // and equal keys, and ±0 are distinct under `total_cmp`.
        let pools: [&[f64]; 4] = [
            &[0.0, 1.0, 2.0, 3.0],
            &[-0.0, 0.0, 1.0],
            &[-0.0, 0.0],
            &[5.0],
        ];
        let mut rng = SimRng::seed_from_u64(0x4854_5245);
        let mut checked = 0;
        for n in (1..=40).chain([63, 64, 65, 100, 257]) {
            for pool in pools {
                for continuous in [false, true] {
                    let coord = |rng: &mut SimRng| {
                        if continuous {
                            rng.gen_range(-4.0..4.0)
                        } else {
                            pool[rng.gen_u64_below(pool.len() as u64) as usize]
                        }
                    };
                    let positions: Vec<Point> = (0..n)
                        .map(|_| {
                            let x = coord(&mut rng);
                            Point::new(x, coord(&mut rng))
                        })
                        .collect();
                    let comm = CommGraph::linear(n);
                    let layout = Layout::from_positions(&comm, positions);
                    let (got, want) = (htree(&comm, &layout), htree_by_stable_sort(&comm, &layout));
                    assert_eq!(got.node_count(), want.node_count(), "n={n} {pool:?}");
                    for v in want.nodes() {
                        let ctx = format!("n={n} pool={pool:?} continuous={continuous} node {v}");
                        // Equal to the bit: `Rect::bounding` orders −0 below
                        // +0, so a centre's zero sign does not follow the
                        // order each split folds its group in.
                        assert_eq!(got.position(v), want.position(v), "{ctx}");
                        let bits = |p: Point| (p.x.to_bits(), p.y.to_bits());
                        assert_eq!(bits(got.position(v)), bits(want.position(v)), "{ctx}");
                        assert_eq!(got.parent(v), want.parent(v), "{ctx}");
                        assert_eq!(
                            got.wire_length(v).to_bits(),
                            want.wire_length(v).to_bits(),
                            "{ctx}"
                        );
                        assert_eq!(got.cell(v), want.cell(v), "{ctx}");
                    }
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 45 * 4 * 2);
    }

    #[test]
    fn spine_neighbor_distance_constant() {
        for n in [4usize, 16, 64, 256] {
            let comm = CommGraph::linear(n);
            let layout = Layout::linear_row(&comm);
            let tree = spine(&comm, &layout);
            assert!(tree.validate().is_ok());
            for i in 0..n - 1 {
                let s = tree.summation_distance(CellId::new(i), CellId::new(i + 1));
                assert!(approx_eq(s, 1.0), "n={n}, i={i}: s={s}");
            }
        }
    }

    #[test]
    fn spine_on_folded_layout_keeps_neighbors_close() {
        let comm = CommGraph::linear(10);
        let layout = Layout::folded_linear(&comm);
        let tree = spine(&comm, &layout);
        for i in 0..9 {
            let s = tree.summation_distance(CellId::new(i), CellId::new(i + 1));
            assert!(s <= 2.0 + 1e-9, "i={i}: s={s}");
        }
    }

    #[test]
    fn spine_on_comb_layout_keeps_neighbors_close() {
        let comm = CommGraph::linear(32);
        let layout = Layout::comb(&comm, 4);
        let tree = spine(&comm, &layout);
        for i in 0..31 {
            let s = tree.summation_distance(CellId::new(i), CellId::new(i + 1));
            assert!(s <= 1.0 + 1e-9, "i={i}: s={s}");
        }
    }

    #[test]
    fn htree_on_linear_array_has_growing_summation_distance() {
        // The Fig. 3(a) H-tree fails under the summation model: the
        // middle pair's tree path grows with n (they meet at the root).
        let mut prev = 0.0;
        for n in [8usize, 32, 128] {
            let comm = CommGraph::linear(n);
            let layout = Layout::linear_row(&comm);
            let tree = htree(&comm, &layout);
            let mid = n / 2;
            let s = tree.summation_distance(CellId::new(mid - 1), CellId::new(mid));
            assert!(s > prev, "n={n}: s={s} did not grow (prev {prev})");
            prev = s;
        }
    }

    #[test]
    fn serpentine_vertical_neighbors_far_apart() {
        let comm = CommGraph::mesh(4, 8);
        let layout = Layout::grid(&comm);
        let tree = serpentine(&comm, &layout);
        assert!(tree.validate().is_ok());
        assert_eq!(tree.attached_cells().len(), 32);
        // Horizontally adjacent cells in the same row: distance 1.
        let s_row = tree.summation_distance(comm.grid_id(0, 0), comm.grid_id(0, 1));
        assert!(approx_eq(s_row, 1.0));
        // Vertical neighbours at the start of a row pay the whole
        // serpentine detour.
        let s_col = tree.summation_distance(comm.grid_id(0, 0), comm.grid_id(1, 0));
        assert!(s_col > 8.0, "s_col = {s_col}");
    }

    #[test]
    fn comb_tree_binary_and_complete() {
        let comm = CommGraph::mesh(5, 6);
        let layout = Layout::grid(&comm);
        let tree = comb_tree(&comm, &layout);
        assert!(tree.validate().is_ok());
        assert_eq!(tree.attached_cells().len(), 30);
        // Cells deep in adjacent teeth are far apart on the tree.
        let s = tree.summation_distance(comm.grid_id(4, 2), comm.grid_id(4, 3));
        assert!(s > 8.0, "s = {s}");
    }

    #[test]
    fn mirror_tree_follows_comm_structure() {
        let comm = CommGraph::complete_binary_tree(5);
        let layout = Layout::htree_tree(&comm);
        let tree = mirror_tree(&comm, &layout);
        assert!(tree.validate().is_ok());
        assert_eq!(tree.attached_cells().len(), comm.node_count());
        // Every COMM edge connects a parent/child pair, which are
        // adjacent on the clock tree: summation distance equals the
        // wire length between them, with no detour.
        for e in comm.edges() {
            let s = tree.summation_distance(e.src, e.dst);
            let direct = layout
                .position(e.src.index())
                .manhattan(layout.position(e.dst.index()));
            assert!(approx_eq(s, direct), "edge {e:?}: s={s}, direct={direct}");
        }
    }

    #[test]
    fn ring_spine_constant_skew_including_wrap() {
        for n in [4usize, 16, 64, 256] {
            let comm = CommGraph::ring(n);
            let layout = Layout::folded_ring(&comm);
            let tree = spine_ring(&comm, &layout);
            assert!(tree.validate().is_ok());
            let worst = comm
                .communicating_pairs()
                .into_iter()
                .map(|(a, b)| tree.summation_distance(a, b))
                .fold(0.0, f64::max);
            // Every ring link within two spine hops of ≤2 units each.
            assert!(worst <= 5.0 + 1e-9, "n={n}: worst tree path {worst}");
        }
    }

    #[test]
    fn spine_single_cell() {
        let comm = CommGraph::linear(1);
        let layout = Layout::linear_row(&comm);
        let tree = spine(&comm, &layout);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.attached_cells().len(), 1);
    }
}
