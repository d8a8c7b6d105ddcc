//! Fully self-timed execution over arbitrary communication graphs.
//!
//! Generalizes the linear-pipeline analysis of
//! [`systolic::throughput`] to any COMM topology: a cell may begin
//! wave `w` once it has finished wave `w − 1` *and* every
//! communicating neighbour has delivered its wave-`w − 1` output
//! (each delivery paying the handshake cost):
//!
//! ```text
//! t[v][w] = max(t[v][w−1], max over neighbours u of t[u][w−1] + h) + d[v][w]
//! ```
//!
//! Cell delays are data-dependent (fast with probability `p`, worst
//! case otherwise), re-drawn per cell per wave. The paper's Section I
//! argument — that a large array's throughput decays to worst case —
//! shows up here on meshes and trees exactly as on paths, with the
//! decay *faster* the higher the node degree (more neighbours to wait
//! for).

use array_layout::graph::{CellId, CommGraph};
use sim_runtime::{mean_std, Rng, SimRng};

/// A self-timed array over an arbitrary communication graph.
#[derive(Debug, Clone)]
pub struct SelfTimedArray {
    comm: CommGraph,
    fast: f64,
    slow: f64,
    p_fast: f64,
    handshake: f64,
}

/// Measurements from a self-timed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveStats {
    /// Mean steady-state time per wave.
    pub period: f64,
    /// Completion time of the final wave.
    pub makespan: f64,
    /// Std-dev of the steady-state per-wave times.
    pub period_std: f64,
}

impl SelfTimedArray {
    /// Creates the array model.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fast ≤ slow`, `0 ≤ p_fast ≤ 1`, and
    /// `handshake ≥ 0`.
    #[must_use]
    pub fn new(comm: &CommGraph, fast: f64, slow: f64, p_fast: f64, handshake: f64) -> Self {
        assert!(0.0 < fast && fast <= slow, "need 0 < fast <= slow");
        assert!((0.0..=1.0).contains(&p_fast), "p_fast must be in [0, 1]");
        assert!(handshake >= 0.0, "handshake must be non-negative");
        SelfTimedArray {
            comm: comm.clone(),
            fast,
            slow,
            p_fast,
            handshake,
        }
    }

    /// The communication graph.
    #[must_use]
    pub fn comm(&self) -> &CommGraph {
        &self.comm
    }

    /// Worst-case clocked period for the same cells: `slow` plus the
    /// handshake the clocked design does *not* pay.
    #[must_use]
    pub fn clocked_period(&self) -> f64 {
        self.slow
    }

    /// Simulates `waves` waves and measures the steady-state period
    /// over the second half.
    ///
    /// # Panics
    ///
    /// Panics if `waves < 4`.
    #[must_use]
    pub fn simulate(&self, waves: usize, seed: u64) -> WaveStats {
        assert!(waves >= 4, "need a few waves to measure steady state");
        let n = self.comm.node_count();
        let neighbors: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                self.comm
                    .undirected_neighbors(CellId::new(i))
                    .into_iter()
                    .map(CellId::index)
                    .collect()
            })
            .collect();
        let mut rng = SimRng::seed_from_u64(seed);
        let mut prev = vec![0.0f64; n];
        let mut cur = vec![0.0f64; n];
        let mut wave_ends = Vec::with_capacity(waves);
        for _ in 0..waves {
            for v in 0..n {
                let mut ready = prev[v];
                for &u in &neighbors[v] {
                    ready = ready.max(prev[u] + self.handshake);
                }
                let d = if rng.gen_f64() < self.p_fast {
                    self.fast
                } else {
                    self.slow
                };
                cur[v] = ready + d;
            }
            wave_ends.push(cur.iter().copied().fold(0.0, f64::max));
            std::mem::swap(&mut prev, &mut cur);
        }
        let half = waves / 2;
        let diffs: Vec<f64> = wave_ends[half..]
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect();
        let (period, period_std) = if diffs.is_empty() {
            (wave_ends[waves - 1] / waves as f64, 0.0)
        } else {
            mean_std(&diffs)
        };
        WaveStats {
            period,
            makespan: wave_ends[waves - 1],
            period_std,
        }
    }

    /// Self-timed advantage over the worst-case-clocked design
    /// (`clocked_period / measured period`, ≥ ~1 when handshake-free).
    #[must_use]
    pub fn advantage(&self, waves: usize, seed: u64) -> f64 {
        self.clocked_period() / self.simulate(waves, seed).period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_delays_give_exact_period() {
        let comm = CommGraph::mesh(4, 4);
        let arr = SelfTimedArray::new(&comm, 2.0, 2.0, 1.0, 0.5);
        let stats = arr.simulate(40, 1);
        // Every wave: neighbour ready + handshake + delay.
        assert!((stats.period - 2.5).abs() < 1e-9, "{stats:?}");
        assert!(stats.period_std < 1e-9);
    }

    #[test]
    fn isolated_cell_never_pays_handshake() {
        let comm = CommGraph::linear(1);
        let arr = SelfTimedArray::new(&comm, 1.0, 3.0, 1.0, 5.0);
        let stats = arr.simulate(20, 2);
        assert!((stats.period - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mesh_decays_at_least_as_fast_as_path() {
        // Same cell count; the mesh's extra coupling (degree 4 vs 2)
        // drags the period at least as close to worst case.
        let path = CommGraph::linear(64);
        let mesh = CommGraph::mesh(8, 8);
        let p_path = SelfTimedArray::new(&path, 1.0, 2.0, 0.9, 0.0)
            .simulate(600, 3)
            .period;
        let p_mesh = SelfTimedArray::new(&mesh, 1.0, 2.0, 0.9, 0.0)
            .simulate(600, 3)
            .period;
        assert!(
            p_mesh >= p_path - 0.05,
            "mesh {p_mesh} should not beat path {p_path}"
        );
    }

    #[test]
    fn advantage_decays_with_size_on_meshes() {
        let small = CommGraph::mesh(2, 2);
        let large = CommGraph::mesh(16, 16);
        let a_small = SelfTimedArray::new(&small, 1.0, 2.0, 0.9, 0.0).advantage(500, 5);
        let a_large = SelfTimedArray::new(&large, 1.0, 2.0, 0.9, 0.0).advantage(500, 5);
        assert!(a_small > a_large, "{a_small} vs {a_large}");
        assert!(a_large < 1.35, "{a_large}");
    }

    #[test]
    fn handshake_cost_slows_every_wave() {
        let comm = CommGraph::mesh(6, 6);
        let free = SelfTimedArray::new(&comm, 1.0, 2.0, 0.9, 0.0).simulate(300, 7);
        let costly = SelfTimedArray::new(&comm, 1.0, 2.0, 0.9, 0.6).simulate(300, 7);
        assert!(costly.period > free.period + 0.5, "{costly:?} vs {free:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let comm = CommGraph::hex(4, 4);
        let arr = SelfTimedArray::new(&comm, 1.0, 2.0, 0.8, 0.1);
        assert_eq!(arr.simulate(100, 9), arr.simulate(100, 9));
    }

    #[test]
    fn works_on_tree_topologies() {
        let comm = CommGraph::complete_binary_tree(6);
        let arr = SelfTimedArray::new(&comm, 1.0, 2.0, 0.9, 0.1);
        let stats = arr.simulate(200, 4);
        assert!(stats.period >= 1.1);
        assert!(stats.period <= 2.0 + 0.1 + 1e-9);
    }
}
