//! Embedding rectangular grids in (near-)square grids.
//!
//! Theorem 2 of the paper invokes a result of Aleliunas and Rosenberg
//! ("On embedding rectangular grids in square grids", IEEE ToC 1982):
//! any rectangular grid embeds in a square grid with edges and area
//! stretched by at most a constant factor. The paper uses it to argue
//! that *any* array with a bounded-aspect-ratio layout can be H-tree
//! clocked.
//!
//! This module implements the simpler **boustrophedon fold**: the long
//! dimension of an `a × b` grid is cut into bands that are stacked to
//! form a near-square. The fold has constant *area* overhead (< 2×) and
//! its measured edge dilation is reported by
//! [`GridEmbedding::max_dilation`] so experiments can account for it.
//! The fold dilates band-crossing edges by up to `a` (the short
//! dimension); the full Aleliunas–Rosenberg construction would bring
//! this to `O(1)`, at the cost of a much more intricate map. Our
//! experiments (E2) apply H-trees to natively square layouts, so the
//! fold suffices to demonstrate Theorem 2's pipeline; DESIGN.md records
//! the substitution.

use crate::geom::Point;
use crate::graph::{CommGraph, Topology};
use crate::layout::Layout;

/// An injective map from the cells of a source `rows × cols` grid to
/// positions in a destination grid of near-square shape.
///
/// # Examples
///
/// ```
/// use array_layout::embedding::GridEmbedding;
///
/// let e = GridEmbedding::fold(2, 32);
/// assert!(e.dst_aspect_ratio() <= 4.0);
/// assert!(e.area_overhead() < 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct GridEmbedding {
    src_rows: usize,
    src_cols: usize,
    dst_rows: usize,
    dst_cols: usize,
    /// Destination `(row, col)` of each source cell, row-major.
    map: Vec<(usize, usize)>,
}

impl GridEmbedding {
    /// Folds a `rows × cols` grid (with `cols` treated as the long
    /// dimension; dimensions are swapped internally if needed) into a
    /// near-square stack of horizontal bands.
    ///
    /// Band `s` holds source columns `s*w .. (s+1)*w` (where `w` is the
    /// band width) and is mirrored horizontally when `s` is odd, so
    /// that band-crossing edges connect cells in the same destination
    /// column.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn fold(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        // Work with the long dimension horizontal.
        let swapped = rows > cols;
        let (a, b) = if swapped { (cols, rows) } else { (rows, cols) };
        // Number of bands that makes the folded shape closest to square:
        // dst is (a*k) x ceil(b/k); squareness wants a*k ≈ b/k.
        let ideal = ((b as f64) / (a as f64)).sqrt();
        let mut best_k = 1;
        let mut best_score = f64::INFINITY;
        for k in 1..=b {
            let w = b.div_ceil(k);
            let h = a * k;
            let score = (h as f64 / w as f64).max(w as f64 / h as f64);
            if score < best_score {
                best_score = score;
                best_k = k;
            }
            if k as f64 > 2.0 * ideal + 2.0 {
                break;
            }
        }
        let k = best_k;
        let w = b.div_ceil(k);
        let dst_rows = a * k;
        let dst_cols = w;
        let mut map = vec![(0, 0); a * b];
        for r in 0..a {
            for c in 0..b {
                let band = c / w;
                let within = c % w;
                let dst_c = if band % 2 == 0 { within } else { w - 1 - within };
                let dst_r = band * a + r;
                map[r * b + c] = (dst_r, dst_c);
            }
        }
        if swapped {
            // Re-index the map so it is row-major in the caller's
            // (rows × cols) orientation.
            let mut remap = vec![(0, 0); rows * cols];
            for (r, row_of) in remap.chunks_mut(cols).enumerate() {
                for (c, slot) in row_of.iter_mut().enumerate() {
                    // Caller's (r, c) is internal (c, r).
                    *slot = map[c * rows + r];
                }
            }
            GridEmbedding {
                src_rows: rows,
                src_cols: cols,
                dst_rows,
                dst_cols,
                map: remap,
            }
        } else {
            GridEmbedding {
                src_rows: rows,
                src_cols: cols,
                dst_rows,
                dst_cols,
                map,
            }
        }
    }

    /// Destination position of source cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the source position is out of bounds.
    #[must_use]
    pub fn image(&self, row: usize, col: usize) -> (usize, usize) {
        assert!(
            row < self.src_rows && col < self.src_cols,
            "source position out of bounds"
        );
        self.map[row * self.src_cols + col]
    }

    /// Ratio of destination area to source area (≥ 1 up to rounding).
    #[must_use]
    pub fn area_overhead(&self) -> f64 {
        (self.dst_rows * self.dst_cols) as f64 / (self.src_rows * self.src_cols) as f64
    }

    /// Aspect ratio of the destination grid (≥ 1).
    #[must_use]
    pub fn dst_aspect_ratio(&self) -> f64 {
        let (h, w) = (self.dst_rows as f64, self.dst_cols as f64);
        (h / w).max(w / h)
    }

    /// Maximum Manhattan distance in the destination between the
    /// images of two grid-adjacent source cells — the edge dilation of
    /// the embedding.
    #[must_use]
    pub fn max_dilation(&self) -> usize {
        let mut worst = 0;
        for r in 0..self.src_rows {
            for c in 0..self.src_cols {
                let (ar, ac) = self.image(r, c);
                for (nr, nc) in [(r + 1, c), (r, c + 1)] {
                    if nr < self.src_rows && nc < self.src_cols {
                        let (br, bc) = self.image(nr, nc);
                        let d = ar.abs_diff(br) + ac.abs_diff(bc);
                        worst = worst.max(d);
                    }
                }
            }
        }
        worst
    }

    /// Applies the embedding to a mesh (or hex) communication graph,
    /// producing a near-square [`Layout`] whose wire lengths reflect
    /// the embedding's dilation.
    ///
    /// # Panics
    ///
    /// Panics if `comm` is not a mesh/hex whose dimensions match this
    /// embedding's source grid.
    #[must_use]
    pub fn apply(&self, comm: &CommGraph) -> Layout {
        let dims = match comm.topology() {
            Topology::Mesh { rows, cols } | Topology::Hex { rows, cols } => (rows, cols),
            other => panic!("embedding applies to mesh/hex graphs, got {other:?}"),
        };
        assert_eq!(
            dims,
            (self.src_rows, self.src_cols),
            "embedding built for a different grid size"
        );
        let positions = (0..comm.node_count())
            .map(|id| {
                let (r, c) = (id / self.src_cols, id % self.src_cols);
                let (dr, dc) = self.image(r, c);
                Point::new(dc as f64, dr as f64)
            })
            .collect();
        Layout::from_positions(comm, positions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fold_is_injective() {
        for (r, c) in [(1, 16), (2, 32), (3, 17), (4, 4), (5, 100)] {
            let e = GridEmbedding::fold(r, c);
            let images: HashSet<_> = (0..r)
                .flat_map(|rr| (0..c).map(move |cc| (rr, cc)))
                .map(|(rr, cc)| e.image(rr, cc))
                .collect();
            assert_eq!(images.len(), r * c, "collision in {r}x{c} fold");
            let (dr, dc) = (e.dst_rows, e.dst_cols);
            for (ir, ic) in images {
                assert!(ir < dr && ic < dc, "image out of bounds in {r}x{c}");
            }
        }
    }

    #[test]
    fn fold_area_overhead_bounded() {
        for (r, c) in [(1, 64), (2, 50), (3, 33), (7, 91)] {
            let e = GridEmbedding::fold(r, c);
            assert!(
                e.area_overhead() < 2.0,
                "{r}x{c}: overhead {}",
                e.area_overhead()
            );
        }
    }

    #[test]
    fn fold_produces_near_square() {
        for (r, c) in [(1, 100), (2, 128), (1, 1024), (4, 256)] {
            let e = GridEmbedding::fold(r, c);
            assert!(
                e.dst_aspect_ratio() <= 4.0,
                "{r}x{c}: aspect {}",
                e.dst_aspect_ratio()
            );
        }
    }

    #[test]
    fn fold_of_square_is_identity_shaped() {
        let e = GridEmbedding::fold(8, 8);
        assert_eq!((e.dst_rows, e.dst_cols), (8, 8));
        assert_eq!(e.max_dilation(), 1);
        assert_eq!(e.image(3, 5), (3, 5));
    }

    #[test]
    fn band_crossing_edges_align_columns() {
        // In the mirrored stacking, a band-crossing edge's endpoints
        // share a destination column, so its dilation is purely
        // vertical and bounded by the short dimension.
        let e = GridEmbedding::fold(2, 32);
        let h = e.dst_rows;
        assert!(h >= 4, "expected at least two bands");
        assert!(e.max_dilation() <= 2 * 2, "dilation {}", e.max_dilation());
    }

    #[test]
    fn swapped_orientation_works() {
        let tall = GridEmbedding::fold(32, 2);
        let tall_ref = &tall;
        let images: HashSet<_> = (0..32)
            .flat_map(|r| (0..2).map(move |c| tall_ref.image(r, c)))
            .collect();
        assert_eq!(images.len(), 64);
        assert!(tall.dst_aspect_ratio() <= 4.0);
    }

    #[test]
    fn apply_builds_valid_layout() {
        let comm = crate::graph::CommGraph::mesh(2, 32);
        let e = GridEmbedding::fold(2, 32);
        let layout = e.apply(&comm);
        assert!(layout.validate(&comm).is_ok());
        assert!(layout.aspect_ratio() <= 4.0);
        // Wire lengths bounded by the dilation (rectilinear routes).
        assert!(layout.max_wire_length() <= e.max_dilation() as f64 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "different grid size")]
    fn apply_checks_dims() {
        let comm = crate::graph::CommGraph::mesh(3, 3);
        let e = GridEmbedding::fold(2, 32);
        let _ = e.apply(&comm);
    }
}
