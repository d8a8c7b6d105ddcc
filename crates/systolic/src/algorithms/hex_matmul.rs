//! Hexagonal systolic matrix multiplication (Kung & Leiserson) — the
//! workload the Fig. 3(c) hexagonal array exists for.
//!
//! Three data streams flow through a hexagonally connected array:
//! `a_{ik}` northward, `b_{kj}` eastward, and the accumulating
//! `c_{ij}` south-westward along the diagonal links. The classic
//! timetable places the meeting of the triple `(i, j, k)` — the
//! multiply-accumulate `c_{ij} += a_{ik}·b_{kj}` — at cell
//! `(x, y) = (i−k, j−k)` at cycle `t = i + j + k`:
//!
//! * fixing `(i, k)`: `a_{ik}` sits at `(i−k, j−k)` at `i+j+k`, so it
//!   moves one step in `+y` per cycle;
//! * fixing `(k, j)`: `b_{kj}` moves `+x` per cycle;
//! * fixing `(i, j)`: `c_{ij}` moves `(−1, −1)` per cycle — exactly
//!   the north-east↔south-west diagonal that distinguishes the hex
//!   array from a mesh.
//!
//! A cell is active when `t ≡ x + y (mod 3)` — the famous one-third
//! utilization of the hexagonal design. A dense `n × n` product uses
//! the `(2n−1) × (2n−1)` hex array.

use crate::exec::{in_port_from, out_port_to, ArrayAlgorithm, Item};
use array_layout::graph::{CellId, CommGraph};

/// Hexagonal systolic matrix-multiply state: `C = A · B`, all `n × n`.
///
/// # Examples
///
/// ```
/// use systolic::algorithms::hex_matmul::HexMatMul;
///
/// let a = vec![vec![1, 2], vec![3, 4]];
/// let b = vec![vec![5, 6], vec![7, 8]];
/// assert_eq!(HexMatMul::multiply(&a, &b), vec![vec![19, 22], vec![43, 50]]);
/// ```
#[derive(Debug, Clone)]
pub struct HexMatMul {
    comm: CommGraph,
    n: usize,
    side: usize,
    a: Vec<Vec<i64>>,
    b: Vec<Vec<i64>>,
    c: Vec<Vec<i64>>,
    /// Per cell: in-port from the south (the `a` stream, moving +y).
    south_in: Vec<Option<usize>>,
    /// Per cell: in-port from the west (the `b` stream, moving +x).
    west_in: Vec<Option<usize>>,
    /// Per cell: in-port from the north-east diagonal (the `c`
    /// stream, moving −x,−y).
    ne_in: Vec<Option<usize>>,
    north_out: Vec<Option<usize>>,
    east_out: Vec<Option<usize>>,
    sw_out: Vec<Option<usize>>,
}

impl HexMatMul {
    /// Builds the array for square `a` and `b` of the same size.
    ///
    /// # Panics
    ///
    /// Panics if the matrices are empty, non-square, or differently
    /// sized.
    #[must_use]
    pub fn new(a: &[Vec<i64>], b: &[Vec<i64>]) -> Self {
        let n = a.len();
        assert!(n > 0, "matrices must be non-empty");
        assert!(
            a.iter().all(|r| r.len() == n),
            "A must be square ({n} x {n})"
        );
        assert_eq!(b.len(), n, "B must match A's size");
        assert!(
            b.iter().all(|r| r.len() == n),
            "B must be square ({n} x {n})"
        );
        let side = 2 * n - 1;
        let comm = CommGraph::hex(side, side);
        let cell = |r: usize, c: usize| comm.grid_id(r, c);
        let mut south_in = Vec::with_capacity(side * side);
        let mut west_in = Vec::with_capacity(side * side);
        let mut ne_in = Vec::with_capacity(side * side);
        let mut north_out = Vec::with_capacity(side * side);
        let mut east_out = Vec::with_capacity(side * side);
        let mut sw_out = Vec::with_capacity(side * side);
        for r in 0..side {
            for c in 0..side {
                let here = cell(r, c);
                south_in.push(
                    (r > 0).then(|| in_port_from(&comm, here, cell(r - 1, c))).flatten(),
                );
                west_in.push(
                    (c > 0).then(|| in_port_from(&comm, here, cell(r, c - 1))).flatten(),
                );
                ne_in.push(
                    (r + 1 < side && c + 1 < side)
                        .then(|| in_port_from(&comm, here, cell(r + 1, c + 1)))
                        .flatten(),
                );
                north_out.push(
                    (r + 1 < side).then(|| out_port_to(&comm, here, cell(r + 1, c))).flatten(),
                );
                east_out.push(
                    (c + 1 < side).then(|| out_port_to(&comm, here, cell(r, c + 1))).flatten(),
                );
                sw_out.push(
                    (r > 0 && c > 0)
                        .then(|| out_port_to(&comm, here, cell(r - 1, c - 1)))
                        .flatten(),
                );
            }
        }
        HexMatMul {
            comm,
            n,
            side,
            a: a.to_vec(),
            b: b.to_vec(),
            c: vec![vec![0; n]; n],
            south_in,
            west_in,
            ne_in,
            north_out,
            east_out,
            sw_out,
        }
    }

    /// The communication graph (a `(2n−1) × (2n−1)` hexagonal array).
    #[must_use]
    pub fn comm(&self) -> &CommGraph {
        &self.comm
    }

    /// Cycles needed for every `c_{ij}` to complete:
    /// `max t = 2(n−1) + (n−1) + 1` plus a margin.
    #[must_use]
    pub fn cycles_needed(&self) -> usize {
        3 * (self.n - 1) + self.n + 2
    }

    /// The accumulated product.
    #[must_use]
    pub fn product(&self) -> &[Vec<i64>] {
        &self.c
    }

    /// Convenience: run to completion on an ideal executor.
    ///
    /// # Panics
    ///
    /// As for [`HexMatMul::new`].
    #[must_use]
    pub fn multiply(a: &[Vec<i64>], b: &[Vec<i64>]) -> Vec<Vec<i64>> {
        let mut hm = HexMatMul::new(a, b);
        let mut exec = crate::exec::IdealExecutor::new(&hm.comm().clone());
        let cycles = hm.cycles_needed();
        exec.run(&mut hm, cycles);
        hm.c
    }

    /// Reference implementation: direct triple loop.
    #[must_use]
    pub fn reference(a: &[Vec<i64>], b: &[Vec<i64>]) -> Vec<Vec<i64>> {
        crate::algorithms::matmul::SystolicMatMul::reference(a, b)
    }

    /// Decodes the `(i, j, k)` triple meeting at grid cell `(r, c)` at
    /// cycle `t`, if any: `x = c − (n−1)`, `y = r − (n−1)`,
    /// `k = (t − x − y)/3`, `i = x + k`, `j = y + k`.
    fn triple_at(&self, r: usize, c: usize, t: usize) -> Option<(usize, usize, usize)> {
        let off = self.n as i64 - 1;
        let x = c as i64 - off;
        let y = r as i64 - off;
        let rem = t as i64 - x - y;
        if rem < 0 || rem % 3 != 0 {
            return None;
        }
        let k = rem / 3;
        let i = x + k;
        let j = y + k;
        let n = self.n as i64;
        if (0..n).contains(&k) && (0..n).contains(&i) && (0..n).contains(&j) {
            Some((i as usize, j as usize, k as usize))
        } else {
            None
        }
    }
}

impl ArrayAlgorithm for HexMatMul {
    fn step_cell(&mut self, cell: CellId, cycle: usize, inputs: &[Item], outputs: &mut [Item]) {
        let idx = cell.index();
        let (r, c) = (idx / self.side, idx % self.side);
        let Some((i, j, k)) = self.triple_at(r, c, cycle) else {
            return;
        };
        // Gather the three streams: first meetings are host-injected.
        let a_val = if j == 0 {
            self.a[i][k]
        } else {
            self.south_in[idx]
                .and_then(|p| inputs[p])
                .expect("a-stream token must arrive on schedule")
        };
        let b_val = if i == 0 {
            self.b[k][j]
        } else {
            self.west_in[idx]
                .and_then(|p| inputs[p])
                .expect("b-stream token must arrive on schedule")
        };
        let c_val = if k == 0 {
            0
        } else {
            self.ne_in[idx]
                .and_then(|p| inputs[p])
                .expect("c-stream token must arrive on schedule")
        };
        let c_new = c_val + a_val * b_val;
        // Route onward (or retire).
        if j + 1 < self.n {
            let p = self.north_out[idx].expect("a-stream has room to move north");
            outputs[p] = Some(a_val);
        }
        if i + 1 < self.n {
            let p = self.east_out[idx].expect("b-stream has room to move east");
            outputs[p] = Some(b_val);
        }
        if k + 1 < self.n {
            let p = self.sw_out[idx].expect("c-stream has room to move south-west");
            outputs[p] = Some(c_new);
        } else {
            self.c[i][j] = c_new;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_by_one() {
        assert_eq!(HexMatMul::multiply(&[vec![3]], &[vec![-4]]), vec![vec![-12]]);
    }

    #[test]
    fn two_by_two_matches_reference() {
        let a = vec![vec![1, 2], vec![3, 4]];
        let b = vec![vec![5, 6], vec![7, 8]];
        assert_eq!(HexMatMul::multiply(&a, &b), HexMatMul::reference(&a, &b));
    }

    #[test]
    fn four_by_four_matches_reference() {
        let a: Vec<Vec<i64>> = (0..4)
            .map(|i| (0..4).map(|j| ((i * 4 + j) % 7) as i64 - 3).collect())
            .collect();
        let b: Vec<Vec<i64>> = (0..4)
            .map(|i| (0..4).map(|j| ((i + j * 3) % 5) as i64 - 2).collect())
            .collect();
        assert_eq!(HexMatMul::multiply(&a, &b), HexMatMul::reference(&a, &b));
    }

    #[test]
    fn identity_passthrough() {
        let id = vec![vec![1, 0, 0], vec![0, 1, 0], vec![0, 0, 1]];
        let b = vec![vec![9, 8, 7], vec![6, 5, 4], vec![3, 2, 1]];
        assert_eq!(HexMatMul::multiply(&id, &b), b);
    }

    #[test]
    fn agrees_with_mesh_design() {
        // Two independent systolic designs computing the same product.
        let a = vec![vec![2, -1, 3], vec![0, 4, 1], vec![-2, 5, -3]];
        let b = vec![vec![1, 2, 0], vec![3, -1, 2], vec![4, 0, -2]];
        assert_eq!(
            HexMatMul::multiply(&a, &b),
            crate::algorithms::matmul::SystolicMatMul::multiply(&a, &b)
        );
    }

    #[test]
    fn one_third_utilization() {
        // A cell is active only when t ≡ x + y (mod 3): count active
        // (cell, cycle) pairs for n = 3 and verify the density.
        let a = vec![vec![1; 3]; 3];
        let hm = HexMatMul::new(&a, &a);
        let mut active = 0usize;
        let mut possible = 0usize;
        for t in 0..hm.cycles_needed() {
            for r in 0..hm.side {
                for c in 0..hm.side {
                    possible += 1;
                    if hm.triple_at(r, c, t).is_some() {
                        active += 1;
                    }
                }
            }
        }
        let density = active as f64 / possible as f64;
        assert!(density < 0.34, "hex utilization must be ≤ 1/3: {density}");
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_non_square() {
        let _ = HexMatMul::new(&[vec![1, 2]], &[vec![1], vec![2]]);
    }
}
