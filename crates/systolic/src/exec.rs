//! Lock-step execution of ideally synchronized arrays (assumption A1).
//!
//! The paper's ideal model: all processors operate in lock step, and
//! every communication edge carries one data item per cycle. The
//! [`IdealExecutor`] implements exactly that semantics: each cycle,
//! every cell reads the values its in-edges delivered *last* cycle,
//! computes, and writes its out-edges for the *next* cycle — a global
//! synchronous dataflow step.
//!
//! Algorithms implement [`ArrayAlgorithm`]; host I/O (injecting
//! streams at boundary cells, collecting results) lives inside the
//! algorithm, which knows which of its cells touch the host.

use array_layout::graph::{CellId, CommGraph};

/// A value travelling on a communication edge. `None` models an idle
/// edge (no data this cycle).
pub type Item = Option<i64>;

/// The behaviour of one array algorithm: per-cell, per-cycle logic.
///
/// `inputs[k]` is the value delivered this cycle on the cell's `k`-th
/// in-edge (ordered as [`CommGraph::in_edge_ids`]); the cell fills
/// `outputs[k]` for its `k`-th out-edge ([`CommGraph::out_edge_ids`]).
/// Outputs start as `None` each cycle.
pub trait ArrayAlgorithm {
    /// One lock-step cycle of one cell.
    fn step_cell(&mut self, cell: CellId, cycle: usize, inputs: &[Item], outputs: &mut [Item]);
}

/// Lock-step executor over a communication graph.
///
/// # Examples
///
/// A two-cell ping-pong: each cell forwards what it received.
///
/// ```
/// use array_layout::graph::{CellId, CommGraph};
/// use systolic::exec::{ArrayAlgorithm, IdealExecutor, Item};
///
/// struct Forward;
/// impl ArrayAlgorithm for Forward {
///     fn step_cell(&mut self, _c: CellId, _t: usize, inp: &[Item], out: &mut [Item]) {
///         out[0] = inp.first().copied().flatten();
///     }
/// }
///
/// let comm = CommGraph::linear(2);
/// let mut exec = IdealExecutor::new(&comm);
/// exec.inject(0, Some(7)); // place a value on edge 0 (cell0 → cell1)
/// let mut alg = Forward;
/// exec.cycle(&mut alg);
/// // cell 1 received 7 and forwarded it back on its out-edge.
/// assert_eq!(exec.edge_value(1), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct IdealExecutor {
    comm: CommGraph,
    edge_regs: Vec<Item>,
    cycle: usize,
}

impl IdealExecutor {
    /// Creates an executor with all edges idle.
    #[must_use]
    pub fn new(comm: &CommGraph) -> Self {
        IdealExecutor {
            edge_regs: vec![None; comm.edge_count()],
            comm: comm.clone(),
            cycle: 0,
        }
    }

    /// The communication graph being executed.
    #[must_use]
    pub fn comm(&self) -> &CommGraph {
        &self.comm
    }

    /// Value currently in flight on edge `e` (delivered next cycle).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn edge_value(&self, e: usize) -> Item {
        self.edge_regs[e]
    }

    /// Places a value on edge `e` directly (test/host use).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn inject(&mut self, e: usize, value: Item) {
        self.edge_regs[e] = value;
    }

    /// Runs one lock-step cycle of `alg` over every cell.
    pub fn cycle<A: ArrayAlgorithm>(&mut self, alg: &mut A) {
        let mut next = vec![None; self.edge_regs.len()];
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for cell in self.comm.cells() {
            inputs.clear();
            inputs.extend(
                self.comm
                    .in_edge_ids(cell)
                    .iter()
                    .map(|&e| self.edge_regs[e]),
            );
            let out_ids = self.comm.out_edge_ids(cell);
            outputs.clear();
            outputs.resize(out_ids.len(), None);
            alg.step_cell(cell, self.cycle, &inputs, &mut outputs);
            for (&e, &v) in out_ids.iter().zip(outputs.iter()) {
                next[e] = v;
            }
        }
        self.edge_regs = next;
        self.cycle += 1;
    }

    /// Runs `n` cycles.
    pub fn run<A: ArrayAlgorithm>(&mut self, alg: &mut A, n: usize) {
        for _ in 0..n {
            self.cycle(alg);
        }
    }
}

/// Index, within `cell`'s input ports (the order of
/// [`CommGraph::in_edge_ids`]), of the edge arriving from `src` —
/// or `None` if no such edge exists.
#[must_use]
pub fn in_port_from(comm: &CommGraph, cell: CellId, src: CellId) -> Option<usize> {
    comm.in_edge_ids(cell)
        .iter()
        .position(|&e| comm.edges()[e].src == src)
}

/// Index, within `cell`'s output ports (the order of
/// [`CommGraph::out_edge_ids`]), of the edge leading to `dst` —
/// or `None` if no such edge exists.
#[must_use]
pub fn out_port_to(comm: &CommGraph, cell: CellId, dst: CellId) -> Option<usize> {
    comm.out_edge_ids(cell)
        .iter()
        .position(|&e| comm.edges()[e].dst == dst)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each cell forwards its first input to all outputs, adding 1.
    struct Increment;

    impl ArrayAlgorithm for Increment {
        fn step_cell(&mut self, _c: CellId, _t: usize, inp: &[Item], out: &mut [Item]) {
            let v = inp.iter().copied().flatten().next();
            for slot in out {
                *slot = v.map(|x| x + 1);
            }
        }
    }

    #[test]
    fn values_advance_one_edge_per_cycle() {
        let comm = CommGraph::linear(4);
        let mut exec = IdealExecutor::new(&comm);
        // Edge 0 is cell0 → cell1 (push order of CommGraph::linear).
        exec.inject(0, Some(10));
        let mut alg = Increment;
        exec.cycle(&mut alg);
        // After one cycle cell 1 consumed 10 and put 11 on both its
        // out-edges (to cell 0 and cell 2).
        let e12 = comm.out_edge_ids(CellId::new(1))
            .iter()
            .copied()
            .find(|&e| comm.edges()[e].dst == CellId::new(2))
            .expect("edge 1→2 exists");
        assert_eq!(exec.edge_value(e12), Some(11));
        assert_eq!(exec.cycle, 1);
    }

    #[test]
    fn lock_step_is_simultaneous() {
        // Two cells swap values every cycle: lock-step means both
        // reads happen before either write, so the values truly swap
        // instead of one overwriting the other.
        struct Swap;
        impl ArrayAlgorithm for Swap {
            fn step_cell(&mut self, _c: CellId, _t: usize, inp: &[Item], out: &mut [Item]) {
                out[0] = inp[0];
            }
        }
        let comm = CommGraph::linear(2);
        let mut exec = IdealExecutor::new(&comm);
        exec.inject(0, Some(1)); // 0→1
        exec.inject(1, Some(2)); // 1→0
        let mut alg = Swap;
        exec.cycle(&mut alg);
        assert_eq!(exec.edge_value(0), Some(2));
        assert_eq!(exec.edge_value(1), Some(1));
    }

    #[test]
    fn idle_edges_stay_idle() {
        let comm = CommGraph::linear(3);
        let mut exec = IdealExecutor::new(&comm);
        let mut alg = Increment;
        exec.run(&mut alg, 5);
        for e in 0..comm.edge_count() {
            assert_eq!(exec.edge_value(e), None);
        }
    }
}
