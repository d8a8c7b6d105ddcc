//! Clock-skew analysis: the difference model (A9), the summation
//! model (A10/A11), Monte-Carlo measurement, and worst-case bounds.
//!
//! Given a clock tree and a wire-delay model, three views of skew are
//! available for each pair of communicating cells:
//!
//! 1. **Analytic worst case** — `σ_max = m·d + ε·s` over all
//!    fabrications within the delay band (Section III's derivation);
//! 2. **Monte-Carlo** — the skew realised by sampled per-edge delay
//!    rates ([`ArrivalTimes`]);
//! 3. **Model bounds** — the abstract `f(d)` / `g(s)` bounds that the
//!    paper's two skew models postulate ([`DifferenceModel`],
//!    [`SummationModel`]).
//!
//! Experiment E1 checks that (2) stays within (1) and that (1) matches
//! the formula; E2–E4 use (1) and (3) to reproduce Theorems 2, 3
//! and 6.

use crate::delay::WireDelayModel;
use crate::tree::{ClockTree, NodeId};
use array_layout::graph::{CellId, CommGraph};
use sim_runtime::ParallelSweep;

/// Clock arrival time at every tree node for one concrete assignment
/// of per-edge delays.
#[derive(Debug, Clone)]
pub struct ArrivalTimes {
    arrival: Vec<f64>,
}

impl ArrivalTimes {
    /// Computes arrival times from per-node edge delay *rates* (one
    /// per node, interpreted as delay per unit length of the wire to
    /// its parent).
    ///
    /// # Panics
    ///
    /// Panics if `rates.len() != tree.node_count()`.
    #[must_use]
    pub fn from_rates(tree: &ClockTree, rates: &[f64]) -> Self {
        assert_eq!(
            rates.len(),
            tree.node_count(),
            "one rate per tree node required"
        );
        let mut arrival = vec![0.0; tree.node_count()];
        for n in tree.nodes() {
            if let Some(p) = tree.parent(n) {
                arrival[n.index()] =
                    arrival[p.index()] + tree.wire_length(n) * rates[n.index()];
            }
        }
        ArrivalTimes { arrival }
    }

    /// Arrival time at the node clocking `cell`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is not attached to the tree.
    #[must_use]
    pub fn at_cell(&self, tree: &ClockTree, cell: CellId) -> f64 {
        let node = tree
            .node_of_cell(cell)
            .unwrap_or_else(|| panic!("cell {cell} not attached to the clock tree"));
        self.arrival[node.index()]
    }

    /// Skew between two cells under this delay assignment.
    ///
    /// # Panics
    ///
    /// Panics if either cell is not attached to the tree.
    #[must_use]
    pub fn skew(&self, tree: &ClockTree, a: CellId, b: CellId) -> f64 {
        (self.at_cell(tree, a) - self.at_cell(tree, b)).abs()
    }
}

/// One tree edge's signed contribution to a pair's skew — the unit of
/// causal attribution ([`attribute_skew`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeContribution {
    /// The node the edge leads into (the edge is `parent(node) → node`).
    pub node: NodeId,
    /// Edge label `n<parent>>n<node>`, stable for reports and traces.
    pub edge: String,
    /// Signed delay contribution: positive along `a`'s root-to-leaf
    /// path, negative along `b`'s (the common prefix cancels and is
    /// omitted).
    pub delta: f64,
}

/// The causal decomposition of one skew observation: which edges of
/// the two root-to-leaf paths produced it, and by how much.
///
/// Skew between `a` and `b` is the difference of their arrival times,
/// and arrival time is the sum of per-edge delays down the tree — so
/// the skew decomposes exactly over the *symmetric difference* of the
/// two paths (everything above the LCA cancels). `signed_skew` is
/// `arrival(a) − arrival(b)`; the magnitude is what
/// [`ArrivalTimes::skew`] reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewBreakdown {
    /// First cell of the pair.
    pub a: CellId,
    /// Second cell of the pair.
    pub b: CellId,
    /// `arrival(a) − arrival(b)` (sum of all edge contributions).
    pub signed_skew: f64,
    /// The fork point: deepest common ancestor of the two leaves.
    /// Everything above it cancels out of the skew.
    pub lca: NodeId,
    /// Wire length of `a`'s path below the LCA.
    pub path_len_a: f64,
    /// Wire length of `b`'s path below the LCA.
    pub path_len_b: f64,
    /// Per-edge contributions: `a`'s path below the LCA in
    /// root-to-leaf order, then `b`'s.
    pub edges: Vec<EdgeContribution>,
}

impl SkewBreakdown {
    /// The skew magnitude, `|signed_skew|`.
    #[must_use]
    pub fn magnitude(&self) -> f64 {
        self.signed_skew.abs()
    }

    /// Structural wire-length imbalance below the fork point,
    /// `|path_len_a − path_len_b|` — the difference-model distance `d`
    /// restricted to this pair. Zero on an equalized symmetric tree;
    /// on asymmetric trees (quadrant/spine) this is the part of the
    /// skew that is *guaranteed* by geometry rather than sampled from
    /// the delay band, so a large value tells the reader the topology,
    /// not the fabrication, produced the skew.
    #[must_use]
    pub fn path_imbalance(&self) -> f64 {
        (self.path_len_a - self.path_len_b).abs()
    }

    /// The single edge contributing the largest absolute delay — where
    /// to look first when chasing a worst-case sample.
    #[must_use]
    pub fn dominant_edge(&self) -> Option<&EdgeContribution> {
        self.edges.iter().max_by(|x, y| {
            x.delta
                .abs()
                .partial_cmp(&y.delta.abs())
                .expect("finite contributions")
        })
    }
}

/// Attributes the skew between `a` and `b` under the per-edge delay
/// `rates` to individual tree edges (see [`SkewBreakdown`]).
///
/// # Panics
///
/// Panics if either cell is not attached to the tree or
/// `rates.len() != tree.node_count()`.
#[must_use]
pub fn attribute_skew(tree: &ClockTree, rates: &[f64], a: CellId, b: CellId) -> SkewBreakdown {
    assert_eq!(
        rates.len(),
        tree.node_count(),
        "one rate per tree node required"
    );
    let node_of = |cell: CellId| {
        tree.node_of_cell(cell)
            .unwrap_or_else(|| panic!("cell {cell} not attached to the clock tree"))
    };
    let (na, nb) = (node_of(a), node_of(b));
    let lca = tree.lca(na, nb);
    let side = |leaf: NodeId, sign: f64| -> Vec<EdgeContribution> {
        let mut path = Vec::new();
        let mut n = leaf;
        while n != lca {
            let p = tree.parent(n).expect("lca is an ancestor");
            path.push(EdgeContribution {
                node: n,
                edge: format!("n{}>n{}", p.index(), n.index()),
                delta: sign * tree.wire_length(n) * rates[n.index()],
            });
            n = p;
        }
        path.reverse(); // root-to-leaf order reads like the tree
        path
    };
    let mut edges = side(na, 1.0);
    let below_a = edges.len();
    edges.extend(side(nb, -1.0));
    let signed_skew = edges.iter().map(|e| e.delta).sum();
    // Path lengths below the fork, from the cached root distances: the
    // two sides may have very different depths *and* lengths on
    // asymmetric trees, and the attribution must say so explicitly
    // rather than assume sibling subtrees mirror each other.
    let path_len = |leaf: NodeId| tree.root_distance(leaf) - tree.root_distance(lca);
    debug_assert_eq!(below_a, tree.depth(na) - tree.depth(lca));
    SkewBreakdown {
        a,
        b,
        signed_skew,
        lca,
        path_len_a: path_len(na),
        path_len_b: path_len(nb),
        edges,
    }
}

/// Analytic worst-case skew between two cells over all fabrications in
/// the delay band: `m·d + ε·s` (Section III).
///
/// # Panics
///
/// Panics if either cell is not attached to the tree.
#[must_use]
pub fn worst_case_skew(
    tree: &ClockTree,
    model: WireDelayModel,
    a: CellId,
    b: CellId,
) -> f64 {
    let d = tree.difference_distance(a, b);
    let s = tree.summation_distance(a, b);
    model.nominal() * d + model.epsilon() * s
}

/// The guaranteed-achievable skew between two cells: some fabrication
/// in the band realises at least `ε·s` (assumption A11 with `β = ε`).
///
/// # Panics
///
/// Panics if either cell is not attached to the tree.
#[must_use]
pub fn achievable_skew_lower_bound(
    tree: &ClockTree,
    model: WireDelayModel,
    a: CellId,
    b: CellId,
) -> f64 {
    model.epsilon() * tree.summation_distance(a, b)
}

/// The paper's **difference model** (assumption A9): skew between two
/// cells is bounded above by `f(d)`, `f` monotonically increasing,
/// `d` the positive difference of their root distances. Appropriate
/// for systems whose clock-line delays can be tuned (discrete
/// components).
pub struct DifferenceModel {
    f: Box<dyn Fn(f64) -> f64 + Send + Sync>,
}

impl std::fmt::Debug for DifferenceModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DifferenceModel").finish_non_exhaustive()
    }
}

impl DifferenceModel {
    /// A linear bound `f(d) = slope · d`; the Section III derivation
    /// with the `ε` terms ignored uses `slope = m`.
    #[must_use]
    pub fn linear(slope: f64) -> Self {
        DifferenceModel {
            f: Box::new(move |d| slope * d),
        }
    }

    /// An arbitrary monotone bound function.
    #[must_use]
    pub fn with_fn(f: impl Fn(f64) -> f64 + Send + Sync + 'static) -> Self {
        DifferenceModel { f: Box::new(f) }
    }

    /// Skew bound `f(d)` for one pair of cells.
    ///
    /// # Panics
    ///
    /// Panics if either cell is not attached to the tree.
    #[must_use]
    pub fn pair_bound(&self, tree: &ClockTree, a: CellId, b: CellId) -> f64 {
        (self.f)(tree.difference_distance(a, b))
    }

    /// Maximum skew bound over all communicating pairs of `comm` —
    /// the `σ` entering the clock period of assumption A5.
    ///
    /// # Panics
    ///
    /// Panics if some cell of `comm` is not attached to the tree.
    #[must_use]
    pub fn max_skew(&self, tree: &ClockTree, comm: &CommGraph) -> f64 {
        comm.communicating_pairs()
            .into_iter()
            .map(|(a, b)| self.pair_bound(tree, a, b))
            .fold(0.0, f64::max)
    }
}

/// The paper's **summation model** (assumptions A10/A11): skew between
/// two cells is bounded above by `g(s)` and below by `β·s`, where `s`
/// is the length of the tree path connecting them. This is the robust
/// model — it holds for "almost any imaginable means of transmitting
/// clock events" (Section VII).
pub struct SummationModel {
    g: Box<dyn Fn(f64) -> f64 + Send + Sync>,
    beta: f64,
}

impl std::fmt::Debug for SummationModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SummationModel")
            .field("beta", &self.beta)
            .finish_non_exhaustive()
    }
}

impl SummationModel {
    /// The linear instance from the Section III derivation:
    /// `g(s) = (m + ε)·s` and `β = ε`.
    ///
    /// # Panics
    ///
    /// Panics if the model has zero variation (the summation model is
    /// vacuous when `ε = 0`).
    #[must_use]
    pub fn from_delay_model(model: WireDelayModel) -> Self {
        assert!(
            model.epsilon() > 0.0,
            "summation model needs positive variation"
        );
        let upper = model.max_rate();
        SummationModel {
            g: Box::new(move |s| upper * s),
            beta: model.epsilon(),
        }
    }

    /// An arbitrary monotone upper bound `g` with lower-bound constant
    /// `beta`.
    ///
    /// # Panics
    ///
    /// Panics unless `beta > 0`.
    #[must_use]
    pub fn with_fn(g: impl Fn(f64) -> f64 + Send + Sync + 'static, beta: f64) -> Self {
        assert!(beta > 0.0, "beta must be positive (assumption A11)");
        SummationModel {
            g: Box::new(g),
            beta,
        }
    }

    /// The lower-bound constant `β` of assumption A11.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Upper skew bound `g(s)` for one pair of cells.
    ///
    /// # Panics
    ///
    /// Panics if either cell is not attached to the tree.
    #[must_use]
    pub fn pair_upper(&self, tree: &ClockTree, a: CellId, b: CellId) -> f64 {
        (self.g)(tree.summation_distance(a, b))
    }

    /// Lower skew bound `β·s` for one pair of cells.
    ///
    /// # Panics
    ///
    /// Panics if either cell is not attached to the tree.
    #[must_use]
    pub fn pair_lower(&self, tree: &ClockTree, a: CellId, b: CellId) -> f64 {
        self.beta * tree.summation_distance(a, b)
    }

    /// Maximum of the upper bound over all communicating pairs — the
    /// `σ` entering the clock period of assumption A5.
    ///
    /// # Panics
    ///
    /// Panics if some cell of `comm` is not attached to the tree.
    #[must_use]
    pub fn max_skew(&self, tree: &ClockTree, comm: &CommGraph) -> f64 {
        comm.communicating_pairs()
            .into_iter()
            .map(|(a, b)| self.pair_upper(tree, a, b))
            .fold(0.0, f64::max)
    }

    /// Maximum of the *lower* bound `β·s` over all communicating
    /// pairs: no fabrication guarantee can beat this, which is the
    /// quantity the Section V-B lower bound constrains.
    ///
    /// # Panics
    ///
    /// Panics if some cell of `comm` is not attached to the tree.
    #[must_use]
    pub fn max_guaranteed_skew(&self, tree: &ClockTree, comm: &CommGraph) -> f64 {
        comm.communicating_pairs()
            .into_iter()
            .map(|(a, b)| self.pair_lower(tree, a, b))
            .fold(0.0, f64::max)
    }
}

/// Result of a Monte-Carlo skew measurement over a whole array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewSample {
    /// Largest skew observed between any communicating pair.
    pub max_skew: f64,
    /// Mean over pairs of the per-pair maximum skew across samples.
    pub mean_pair_skew: f64,
}

/// Samples `samples` fabrications of the tree's wire delays and
/// reports the largest skew seen between communicating cells of
/// `comm`, plus the mean over pairs of each pair's own maximum — the
/// E1 fabrication sweep. Samples fan out across a [`ParallelSweep`],
/// each fabrication drawing from its own per-trial stream, so the
/// result depends only on `seed`, never on the worker count.
///
/// # Panics
///
/// Panics if `samples == 0` or some cell of `comm` is not attached.
#[must_use]
pub fn monte_carlo_skew_par(
    tree: &ClockTree,
    comm: &CommGraph,
    model: WireDelayModel,
    samples: usize,
    seed: u64,
    sweep: &ParallelSweep,
) -> SkewSample {
    assert!(samples > 0, "at least one sample required");
    let pairs = comm.communicating_pairs();
    let per_sample: Vec<Vec<f64>> = sweep.run(0..samples, seed, |_i, rng| {
        let rates = model.sample_rates(tree, rng);
        let arrivals = ArrivalTimes::from_rates(tree, &rates);
        pairs
            .iter()
            .map(|&(a, b)| arrivals.skew(tree, a, b))
            .collect()
    });
    let mut per_pair_max = vec![0.0f64; pairs.len()];
    for skews in &per_sample {
        for (slot, &s) in per_pair_max.iter_mut().zip(skews) {
            if s > *slot {
                *slot = s;
            }
        }
    }
    let max_skew = per_pair_max.iter().copied().fold(0.0, f64::max);
    let mean_pair_skew = if pairs.is_empty() {
        0.0
    } else {
        per_pair_max.iter().sum::<f64>() / pairs.len() as f64
    };
    SkewSample {
        max_skew,
        mean_pair_skew,
    }
}

/// Analytic worst-case skew over all communicating pairs: the maximum
/// of `m·d + ε·s`.
///
/// # Panics
///
/// Panics if some cell of `comm` is not attached to the tree.
#[must_use]
pub fn max_worst_case_skew(
    tree: &ClockTree,
    comm: &CommGraph,
    model: WireDelayModel,
) -> f64 {
    comm.communicating_pairs()
        .into_iter()
        .map(|(a, b)| worst_case_skew(tree, model, a, b))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::ClockTreeBuilder;
    use array_layout::geom::{approx_eq, Point};
    use sim_runtime::SimRng;

    /// Root with two leaves at distances 3 and 5.
    fn two_leaf_tree() -> ClockTree {
        let mut b = ClockTreeBuilder::new(Point::origin());
        let l = b.add_child(b.root(), Point::new(3.0, 0.0), None);
        let r = b.add_child(b.root(), Point::new(0.0, 5.0), None);
        b.attach_cell(l, CellId::new(0));
        b.attach_cell(r, CellId::new(1));
        b.build()
    }

    fn pair_comm() -> CommGraph {
        CommGraph::linear(2)
    }

    #[test]
    fn worst_case_matches_formula() {
        let t = two_leaf_tree();
        let m = WireDelayModel::new(1.0, 0.1);
        // d = 2, s = 8 → σ_max = 1·2 + 0.1·8 = 2.8.
        let wc = worst_case_skew(&t, m, CellId::new(0), CellId::new(1));
        assert!(approx_eq(wc, 2.8));
        assert!(approx_eq(
            achievable_skew_lower_bound(&t, m, CellId::new(0), CellId::new(1)),
            0.8
        ));
    }

    #[test]
    fn attribution_decomposes_the_skew_exactly() {
        let t = two_leaf_tree();
        // Distinct rates per node so the sides differ: node order is
        // root(0), left leaf(1), right leaf(2).
        let rates = vec![0.0, 1.5, 0.5];
        let (a, b) = (CellId::new(0), CellId::new(1));
        let bd = attribute_skew(&t, &rates, a, b);
        let arrivals = ArrivalTimes::from_rates(&t, &rates);
        // arrival(a) = 3·1.5 = 4.5, arrival(b) = 5·0.5 = 2.5.
        assert!(approx_eq(bd.signed_skew, 2.0));
        assert!(approx_eq(bd.magnitude(), arrivals.skew(&t, a, b)));
        assert_eq!(bd.edges.len(), 2, "one edge per side below the LCA");
        assert!(approx_eq(bd.edges[0].delta, 4.5));
        assert!(approx_eq(bd.edges[1].delta, -2.5));
        assert_eq!(bd.edges[0].edge, "n0>n1");
        assert_eq!(bd.edges[1].edge, "n0>n2");
        let dom = bd.dominant_edge().expect("non-empty path");
        assert_eq!(dom.edge, "n0>n1", "the long-pole edge is named");
        // Swapping the pair negates the signed skew.
        let swapped = attribute_skew(&t, &rates, b, a);
        assert!(approx_eq(swapped.signed_skew, -2.0));
    }

    #[test]
    fn attribution_is_path_length_aware_on_a_lopsided_tree() {
        // Deliberately asymmetric: one leaf hangs a single 2-unit edge
        // off the root, the other sits three edges (total length 7)
        // deep — the quadrant/secondary-spine shape in miniature.
        // Nothing about the attribution may assume sibling subtrees of
        // equal depth or length.
        let mut b = ClockTreeBuilder::new(Point::origin());
        let shallow = b.add_child(b.root(), Point::new(2.0, 0.0), None);
        let x = b.add_child(b.root(), Point::new(0.0, 3.0), None);
        let y = b.add_child(x, Point::new(0.0, 6.0), None);
        let deep = b.add_child(y, Point::new(1.0, 6.0), None);
        b.attach_cell(shallow, CellId::new(0));
        b.attach_cell(deep, CellId::new(1));
        let t = b.build();

        let rates = vec![0.0, 1.0, 0.5, 2.0, 1.0]; // root, shallow, x, y, deep
        let (a, c) = (CellId::new(0), CellId::new(1));
        let bd = attribute_skew(&t, &rates, a, c);

        // The decomposition stays exact across unequal depths...
        let arrivals = ArrivalTimes::from_rates(&t, &rates);
        // arrival(a) = 2·1 = 2; arrival(b) = 3·0.5 + 3·2 + 1·1 = 8.5.
        assert!(approx_eq(bd.signed_skew, -6.5));
        assert!(approx_eq(bd.magnitude(), arrivals.skew(&t, a, c)));
        assert_eq!(bd.edges.len(), 1 + 3, "one edge vs three below the fork");
        assert!(approx_eq(bd.edges.iter().map(|e| e.delta).sum::<f64>(), bd.signed_skew));

        // ...and the breakdown reports the structural imbalance rather
        // than pretending the sides mirror each other.
        assert_eq!(bd.lca, t.root());
        assert!(approx_eq(bd.path_len_a, 2.0));
        assert!(approx_eq(bd.path_len_b, 7.0));
        assert!(approx_eq(bd.path_imbalance(), 5.0));
        let dom = bd.dominant_edge().expect("non-empty path");
        assert_eq!(dom.edge, "n2>n3", "the 3-unit edge at rate 2 dominates");

        // A pair forking below the root attributes from the true LCA,
        // not the root: compare deep vs a sibling hanging off `y`.
        // (Single-pair sanity on the same lopsided shape.)
        let swapped = attribute_skew(&t, &rates, c, a);
        assert!(approx_eq(swapped.path_len_a, 7.0));
        assert!(approx_eq(swapped.path_len_b, 2.0));
        assert!(approx_eq(swapped.path_imbalance(), 5.0));
    }

    #[test]
    fn monte_carlo_within_analytic_bounds() {
        let t = two_leaf_tree();
        let comm = pair_comm();
        let m = WireDelayModel::new(1.0, 0.2);
        let sample = monte_carlo_skew_par(&t, &comm, m, 500, 11, &ParallelSweep::new(1));
        let wc = max_worst_case_skew(&t, &comm, m);
        assert!(sample.max_skew <= wc + 1e-9, "{} > {}", sample.max_skew, wc);
        // With 500 samples the observed max should come close to the
        // analytic worst case (within 40 %): d·m dominates here.
        assert!(sample.max_skew >= 0.6 * wc, "{} « {}", sample.max_skew, wc);
        assert!(sample.mean_pair_skew <= sample.max_skew);
    }

    #[test]
    fn parallel_monte_carlo_is_thread_count_invariant() {
        let t = two_leaf_tree();
        let comm = pair_comm();
        let m = WireDelayModel::new(1.0, 0.2);
        let base = monte_carlo_skew_par(&t, &comm, m, 300, 11, &ParallelSweep::new(1));
        for threads in [2, 4] {
            let par =
                monte_carlo_skew_par(&t, &comm, m, 300, 11, &ParallelSweep::new(threads));
            assert_eq!(base.max_skew.to_bits(), par.max_skew.to_bits());
            assert_eq!(base.mean_pair_skew.to_bits(), par.mean_pair_skew.to_bits());
        }
        // And it still respects the analytic envelope.
        let wc = max_worst_case_skew(&t, &comm, m);
        assert!(base.max_skew <= wc + 1e-9);
        assert!(base.max_skew >= 0.6 * wc);
    }

    #[test]
    fn exact_model_skew_is_pure_difference() {
        let t = two_leaf_tree();
        let m = WireDelayModel::exact(2.0);
        let rates = m.sample_rates(&t, &mut SimRng::seed_from_u64(0));
        let arr = ArrivalTimes::from_rates(&t, &rates);
        // Arrival difference = m · (5 − 3) = 4 exactly.
        assert!(approx_eq(arr.skew(&t, CellId::new(0), CellId::new(1)), 4.0));
    }

    #[test]
    fn difference_model_bounds() {
        let t = two_leaf_tree();
        let comm = pair_comm();
        let dm = DifferenceModel::linear(1.5);
        assert!(approx_eq(dm.pair_bound(&t, CellId::new(0), CellId::new(1)), 3.0));
        assert!(approx_eq(dm.max_skew(&t, &comm), 3.0));
        let custom = DifferenceModel::with_fn(|d| d * d);
        assert!(approx_eq(custom.pair_bound(&t, CellId::new(0), CellId::new(1)), 4.0));
    }

    #[test]
    fn summation_model_bounds() {
        let t = two_leaf_tree();
        let comm = pair_comm();
        let sm = SummationModel::from_delay_model(WireDelayModel::new(1.0, 0.25));
        // s = 8: upper (1.25)·8 = 10, lower 0.25·8 = 2.
        assert!(approx_eq(sm.pair_upper(&t, CellId::new(0), CellId::new(1)), 10.0));
        assert!(approx_eq(sm.pair_lower(&t, CellId::new(0), CellId::new(1)), 2.0));
        assert!(approx_eq(sm.max_skew(&t, &comm), 10.0));
        assert!(approx_eq(sm.max_guaranteed_skew(&t, &comm), 2.0));
        assert!(approx_eq(sm.beta(), 0.25));
    }

    #[test]
    fn summation_lower_never_exceeds_upper() {
        let t = two_leaf_tree();
        let sm = SummationModel::from_delay_model(WireDelayModel::new(1.0, 0.1));
        let (a, b) = (CellId::new(0), CellId::new(1));
        assert!(sm.pair_lower(&t, a, b) <= sm.pair_upper(&t, a, b));
    }

    #[test]
    fn equalized_tree_has_zero_difference_skew() {
        let t = two_leaf_tree().equalized();
        let m = WireDelayModel::exact(1.0);
        let rates = m.sample_rates(&t, &mut SimRng::seed_from_u64(0));
        let arr = ArrivalTimes::from_rates(&t, &rates);
        assert!(approx_eq(arr.skew(&t, CellId::new(0), CellId::new(1)), 0.0));
    }

    #[test]
    #[should_panic(expected = "not attached")]
    fn arrival_times_reject_unknown_cell() {
        let t = two_leaf_tree();
        let rates = vec![1.0; t.node_count()];
        let arr = ArrivalTimes::from_rates(&t, &rates);
        let _ = arr.at_cell(&t, CellId::new(99));
    }

    #[test]
    #[should_panic(expected = "positive variation")]
    fn summation_model_rejects_zero_epsilon() {
        let _ = SummationModel::from_delay_model(WireDelayModel::exact(1.0));
    }
}
