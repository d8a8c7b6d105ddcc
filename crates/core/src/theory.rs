//! The paper's theorems as executable bounds and certificates.
//!
//! * Theorem 2 — H-tree clocking under the difference model gives a
//!   period independent of array size ([`theorem2_period`]);
//! * Theorem 3 — spine clocking of one-dimensional arrays under the
//!   summation model gives constant neighbour skew
//!   ([`theorem3_skew_bound`]);
//! * Section V-B / Theorem 6 — on any layout of an `n × n` mesh, with
//!   any clock tree, the guaranteed skew is `Ω(n)`
//!   ([`mesh_skew_lower_bound`], [`theorem6_lower_bound`]), via the
//!   circle argument whose steps [`circle_certificate`] replays;
//! * [`classify_growth`] — empirical asymptotic classification used by
//!   the experiments to check measured curves against the theory.

use array_layout::bisection::known_bisection_width;
use array_layout::graph::{CommGraph, Topology};
use array_layout::layout::Layout;
use clock_tree::skew::SummationModel;
use clock_tree::tree::ClockTree;

/// Theorem 2: the clock period of an equalized H-tree under the
/// (linear) difference model.
///
/// With all cells equidistant from the root, `d = 0` for every pair,
/// so `σ = f(0) = 0` and the period is `δ + τ` — independent of the
/// array size. This function computes the actual period for a given
/// tree so experiments can verify the constancy rather than assume it.
///
/// # Panics
///
/// Panics if some cell of `comm` is not attached to the tree.
#[must_use]
pub fn theorem2_period(
    tree: &ClockTree,
    comm: &CommGraph,
    slope_m: f64,
    delta: f64,
    tau: f64,
) -> f64 {
    let dm = clock_tree::skew::DifferenceModel::linear(slope_m);
    clock_tree::period::clock_period(dm.max_skew(tree, comm), delta, tau)
}

/// Theorem 3: the summation-model skew bound for a spine-clocked
/// one-dimensional array — `g(s_max)` where `s_max` is the largest
/// tree-path distance between communicating neighbours (a constant of
/// the layout's cell pitch, not of `n`).
///
/// # Panics
///
/// Panics if some cell of `comm` is not attached to the tree.
#[must_use]
pub fn theorem3_skew_bound(tree: &ClockTree, comm: &CommGraph, model: &SummationModel) -> f64 {
    model.max_skew(tree, comm)
}

/// The mesh-bisection constant used by the Section V-B argument: any
/// partition of an `n × n` mesh leaving both sides at least
/// `(7/30)·n²` cells cuts at least `√(7/30)·n` edges (edge
/// isoperimetry on the grid). The paper's Lemma 4 states the bound
/// abstractly as `c · n`; this is a concrete safe `c`.
pub const MESH_BISECTION_CONSTANT: f64 = 0.483; // ≈ √(7/30)

/// Section V-B: the guaranteed-skew lower bound for an `n × n` mesh
/// under the summation model with lower-bound constant `beta`
/// (assumption A11).
///
/// The proof yields `σ ≥ β·n/√(10π)` when at least `n²/10` cells fall
/// inside the circle, and `σ ≥ β·c·n/(2π)` otherwise; the bound is the
/// *minimum* of the two branches (the adversary picks the case).
///
/// # Panics
///
/// Panics unless `beta > 0`.
#[must_use]
pub fn mesh_skew_lower_bound(n: usize, beta: f64) -> f64 {
    assert!(beta > 0.0, "beta must be positive (assumption A11)");
    let n = n as f64;
    let area_branch = beta * n / (10.0 * std::f64::consts::PI).sqrt();
    let cut_branch = beta * MESH_BISECTION_CONSTANT * n / (2.0 * std::f64::consts::PI);
    area_branch.min(cut_branch)
}

/// Theorem 6, generalized: for a graph of `node_count` nodes with
/// minimum bisection width `w`, the summation-model guaranteed skew is
/// `Ω(w)`; concretely `σ ≥ β·w/(2π)` by the same circle argument.
///
/// # Panics
///
/// Panics unless `beta > 0`.
#[must_use]
pub fn theorem6_lower_bound(bisection_width: usize, beta: f64) -> f64 {
    assert!(beta > 0.0, "beta must be positive (assumption A11)");
    beta * bisection_width as f64 / (2.0 * std::f64::consts::PI)
}

/// Theorem 6 specialised by topology, using the known bisection
/// widths. Returns `None` for custom graphs (estimate the width
/// first).
#[must_use]
pub fn theorem6_bound_for(comm: &CommGraph, beta: f64) -> Option<f64> {
    known_bisection_width(comm).map(|w| theorem6_lower_bound(w, beta))
}

/// One replay of the Section V-B circle argument on a concrete
/// (layout, clock tree) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircleCertificate {
    /// Radius `σ/β` of the circle around the separator subtree root.
    pub radius: f64,
    /// Cells inside the circle.
    pub cells_inside: usize,
    /// Whether the area branch (`≥ n²/10` cells inside) fired.
    pub area_branch: bool,
    /// The σ value being certified (the tree's max guaranteed skew).
    pub sigma: f64,
}

/// Replays the Section V-B proof steps on an actual mesh layout and
/// clock tree: finds Lemma 5's separator edge, draws the circle of
/// radius `σ/β` around the separated subtree's root, and counts the
/// cells inside.
///
/// The returned certificate shows *which* branch of the proof binds
/// for this tree. In both branches the conclusion `σ = Ω(n)` holds;
/// the caller checks `sigma` against [`mesh_skew_lower_bound`].
///
/// # Panics
///
/// Panics if `comm` is not a mesh, or cells are missing from the tree.
#[must_use]
pub fn circle_certificate(
    comm: &CommGraph,
    layout: &Layout,
    tree: &ClockTree,
    model: &SummationModel,
) -> CircleCertificate {
    let Topology::Mesh { rows, cols } = comm.topology() else {
        panic!("the circle certificate applies to mesh arrays");
    };
    let n2 = rows * cols;
    let sigma = model.max_guaranteed_skew(tree, comm);
    let radius = sigma / model.beta();
    // Lemma 5: separate the cells' tree nodes.
    let marked: Vec<_> = comm
        .cells()
        .map(|c| tree.node_of_cell(c).expect("cell attached to tree"))
        .collect();
    let (sep_child, _inside) = tree.separator_edge(&marked);
    let center = tree.position(sep_child);
    let cells_inside = (0..comm.node_count())
        .filter(|&i| layout.position(i).euclidean(center) <= radius)
        .count();
    CircleCertificate {
        radius,
        cells_inside,
        area_branch: cells_inside * 10 >= n2,
        sigma,
    }
}

/// Empirical asymptotic class of a measured curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrowthClass {
    /// Bounded by a constant (log–log slope ≈ 0).
    Constant,
    /// Grows like `√n` (slope ≈ 1/2).
    Sqrt,
    /// Grows like `n` (slope ≈ 1).
    Linear,
    /// Grows faster than linearly.
    Superlinear,
}

/// Classifies the growth of `ys` against `xs` by log–log least-squares
/// slope: `< 0.2` constant, `< 0.75` √n-like, `< 1.35` linear, else
/// superlinear.
///
/// # Panics
///
/// Panics if fewer than two points are given, lengths differ, or any
/// value is non-positive (take measurements at `n ≥ 1` with positive
/// metrics).
#[must_use]
pub fn classify_growth(xs: &[f64], ys: &[f64]) -> GrowthClass {
    assert_eq!(xs.len(), ys.len(), "xs and ys must have equal length");
    assert!(xs.len() >= 2, "need at least two points");
    assert!(
        xs.iter().chain(ys).all(|&v| v > 0.0),
        "log-log classification needs positive values"
    );
    let lx: Vec<f64> = xs.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|v| v.ln()).collect();
    let (slope, _) = sim_runtime::linear_fit(&lx, &ly);
    if slope < 0.2 {
        GrowthClass::Constant
    } else if slope < 0.75 {
        GrowthClass::Sqrt
    } else if slope < 1.35 {
        GrowthClass::Linear
    } else {
        GrowthClass::Superlinear
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array_layout::layout::Layout;
    use clock_tree::builders::{htree, spine};
    use clock_tree::delay::WireDelayModel;

    #[test]
    fn theorem2_period_constant_across_sizes() {
        let mut periods = Vec::new();
        for k in [4usize, 8, 16] {
            let comm = CommGraph::mesh(k, k);
            let layout = Layout::grid(&comm);
            let tree = htree(&comm, &layout).equalized();
            periods.push(theorem2_period(&tree, &comm, 1.0, 2.0, 1.5));
        }
        assert!((periods[0] - periods[1]).abs() < 1e-9);
        assert!((periods[1] - periods[2]).abs() < 1e-9);
        // σ = 0, so period = δ + τ.
        assert!((periods[0] - 3.5).abs() < 1e-9);
    }

    #[test]
    fn theorem3_bound_constant_across_sizes() {
        let model = SummationModel::from_delay_model(WireDelayModel::new(1.0, 0.1));
        let mut bounds = Vec::new();
        for n in [8usize, 64, 512] {
            let comm = CommGraph::linear(n);
            let layout = Layout::linear_row(&comm);
            let tree = spine(&comm, &layout);
            bounds.push(theorem3_skew_bound(&tree, &comm, &model));
        }
        assert!((bounds[0] - bounds[2]).abs() < 1e-9);
        assert!((bounds[0] - 1.1).abs() < 1e-9); // g(1) = 1.1 · 1
    }

    #[test]
    fn mesh_lower_bound_linear_in_n() {
        let beta = 0.1;
        let b8 = mesh_skew_lower_bound(8, beta);
        let b32 = mesh_skew_lower_bound(32, beta);
        assert!((b32 / b8 - 4.0).abs() < 1e-9);
        assert!(b8 > 0.0);
    }

    #[test]
    fn theorem6_tracks_bisection_width() {
        let beta = 0.2;
        let mesh = CommGraph::mesh(16, 16);
        let tree_graph = CommGraph::complete_binary_tree(8);
        let mesh_bound = theorem6_bound_for(&mesh, beta).expect("known");
        let tree_bound = theorem6_bound_for(&tree_graph, beta).expect("known");
        // Mesh width 16 vs tree width 1.
        assert!(mesh_bound > 10.0 * tree_bound);
    }

    #[test]
    fn measured_htree_skew_beats_mesh_lower_bound() {
        // The real point: the measured guaranteed skew of an actual
        // H-tree on an n×n mesh exceeds the theoretical lower bound,
        // and both grow linearly.
        let model = SummationModel::from_delay_model(WireDelayModel::new(1.0, 0.1));
        for n in [8usize, 16] {
            let comm = CommGraph::mesh(n, n);
            let layout = Layout::grid(&comm);
            let tree = htree(&comm, &layout);
            let sigma = model.max_guaranteed_skew(&tree, &comm);
            let bound = mesh_skew_lower_bound(n, model.beta());
            assert!(sigma >= bound, "n={n}: σ {sigma} < bound {bound}");
        }
    }

    #[test]
    fn circle_certificate_replays_proof() {
        let model = SummationModel::from_delay_model(WireDelayModel::new(1.0, 0.1));
        let comm = CommGraph::mesh(12, 12);
        let layout = Layout::grid(&comm);
        let tree = htree(&comm, &layout);
        let cert = circle_certificate(&comm, &layout, &tree, &model);
        assert!(cert.sigma > 0.0);
        assert!(cert.radius > 0.0);
        assert!(cert.cells_inside <= 144);
        // Whichever branch fired, σ respects the lower bound.
        assert!(cert.sigma >= mesh_skew_lower_bound(12, model.beta()));
    }

    #[test]
    fn growth_classifier_recognises_shapes() {
        let xs = [4.0, 8.0, 16.0, 32.0, 64.0];
        let constant: Vec<f64> = xs.iter().map(|_| 3.0).collect();
        let sqrt: Vec<f64> = xs.iter().map(|&x: &f64| 2.0 * x.sqrt()).collect();
        let linear: Vec<f64> = xs.iter().map(|x| 0.5 * x).collect();
        let quad: Vec<f64> = xs.iter().map(|x| x * x).collect();
        assert_eq!(classify_growth(&xs, &constant), GrowthClass::Constant);
        assert_eq!(classify_growth(&xs, &sqrt), GrowthClass::Sqrt);
        assert_eq!(classify_growth(&xs, &linear), GrowthClass::Linear);
        assert_eq!(classify_growth(&xs, &quad), GrowthClass::Superlinear);
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn growth_classifier_rejects_nonpositive() {
        let _ = classify_growth(&[1.0, 2.0], &[0.0, 1.0]);
    }
}
