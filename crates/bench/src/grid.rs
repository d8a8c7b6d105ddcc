//! The (scheme × topology × size × fault-rate) design-space grid.
//!
//! E12 established the machinery — five synchronization schemes under
//! one seed-derived fault environment with structured [`RunOutcome`]s —
//! and e13 extended the scheme axis with the self-stabilizing
//! TRIX/PALS cells, which face *episode* faults (transient outages
//! with onset and repair) and are judged by whether every skew
//! violation heals.
//! This module extracts that machinery so it can serve two masters:
//! the e12 experiment itself (tables, in-report asserts) and the
//! `sim-sweep` mega-sweep (the `explore` / `sweep_shard` binaries and
//! the `frontier` op in sim-serve), which walks the same grid across
//! checkpointed shards and prunes it to a Pareto frontier.
//!
//! Everything here is deterministic in `(manifest seed, global trial
//! index)`: trial results are pure JSON values, aggregation is an
//! in-order fold, and the hardware-cost proxy is a pure function of
//! the grid point — so shard merges stay byte-identical to
//! single-process runs.

use crate::episode::{episode_trial, EpisodeScheme};
use array_layout::prelude::*;
use clock_tree::prelude::*;
use selftimed::prelude::*;
use sim_faults::{
    truncate_panic_reason, EpisodeConfig, FaultPlan, FaultRates, OutcomeTally, RecoveryConfig,
    RetryPolicy, RunOutcome,
};
use sim_observe::Json;
use sim_runtime::{panic_message, SimRng};
use sim_sweep::{
    frontier_report, merged_report, run_single, GridPoint, Manifest, Objective,
};

/// Clock period `d` of the paper's timing model.
pub const DELTA: f64 = 2.0;
/// Mean unit-wire delay of the `m ± ε` wire model.
pub const M: f64 = 1.0;
/// Wire-delay half-spread of the `m ± ε` wire model.
pub const EPS: f64 = 0.1;
/// Buffer spacing along clock wires.
pub const SPACING: f64 = 1.0;
/// The fault-rate axis of the grid.
pub const RATES: [f64; 3] = [0.0, 0.01, 0.05];
/// Clock waves simulated per hybrid trial.
pub const WAVES: usize = 12;
/// Tokens pushed through a self-timed chain per trial.
pub const TOKENS: usize = 8;

/// The scheme/topology combinations of the grid, in report order.
/// `trix`/`pals` are the self-stabilizing schemes of e13: for them the
/// point's `fault_rate` is the *episode* rate (transient outages with
/// onset and repair) rather than a per-element hard-fault probability,
/// and a trial survives iff every skew violation heals. The `quadrant`
/// rows drive the realistic Spartan-3-like quadrant/spine topology
/// from `sim-topo` (e14) instead of an idealized symmetric tree.
pub const SCHEMES: [(&str, &str); 9] = [
    ("global", "spine"),
    ("global", "htree"),
    ("global", "quadrant"),
    ("pipelined", "htree"),
    ("pipelined", "quadrant"),
    ("hybrid", "mesh"),
    ("selftimed", "chain"),
    ("trix", "grid"),
    ("pals", "mesh"),
];

/// Episode shape for the self-stabilizing grid cells — a compressed
/// version of e13's storm (shorter horizon, same physics) so sweep
/// trials stay cheap.
#[must_use]
pub fn episode_config(rate: f64) -> EpisodeConfig {
    EpisodeConfig {
        rate,
        min_duration: 20,
        max_duration: 40,
        horizon: 120,
    }
}

/// Ticks simulated per self-stabilizing trial: the episode horizon,
/// the repair tail, and re-lock slack.
pub const EP_TICKS: u64 = 300;
/// Skew-invariant threshold for the self-stabilizing cells.
pub const EP_THRESHOLD: f64 = 0.75;
/// Clean ticks required to close a violation span.
pub const EP_HOLD: u64 = 8;

/// The shared retry policy: 3 retries, timeout 5.
#[must_use]
pub fn policy() -> RetryPolicy {
    RetryPolicy::new(3, 5.0)
}

/// The shared two-phase handshake link.
#[must_use]
pub fn link() -> HandshakeLink {
    HandshakeLink::new(1.0, 0.5, Protocol::TwoPhase)
}

/// Worst arrival-time spread over every clocked cell.
#[must_use]
pub fn global_skew(tree: &ClockTree, at: &ArrivalTimes) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for c in tree.attached_cells() {
        let a = at.at_cell(tree, c);
        lo = lo.min(a);
        hi = hi.max(a);
    }
    if hi >= lo {
        hi - lo
    } else {
        0.0
    }
}

/// Worst skew over communicating pairs only (the pipelined discipline).
#[must_use]
pub fn local_skew(tree: &ClockTree, at: &ArrivalTimes, pairs: &[(CellId, CellId)]) -> f64 {
    pairs
        .iter()
        .map(|&(a, b)| at.skew(tree, a, b))
        .fold(0.0, f64::max)
}

/// One globally- or pipeline-clocked scheme under test.
#[derive(Debug)]
pub struct Clocked {
    /// The clock-distribution tree faults are injected into.
    pub tree: ClockTree,
    /// How the clock reaches the cells (equipotential or pipelined).
    pub dist: Distribution,
    /// Extra skew (beyond the same-trial nominal) the margin absorbs.
    pub slack: f64,
    /// Use communicating-pair skew instead of global spread.
    pub local: bool,
}

/// A clocked trial: dead buffers silence a subtree (the array loses
/// cells — counted as a deadlock of the global discipline), degraded
/// buffers stretch edges. The margin test compares faulted against
/// nominal skew *under the same sampled wire rates*, so a fault-free
/// trial always passes and the verdict isolates fault damage.
pub fn clocked_trial(
    s: &Clocked,
    pairs: &[(CellId, CellId)],
    wdm: &WireDelayModel,
    plan: &FaultPlan,
    rng: &mut SimRng,
) -> (RunOutcome, f64) {
    let report = s.tree.with_buffer_faults(plan, SPACING);
    if report.any_dead() {
        return (RunOutcome::Deadlock, 0.0);
    }
    let rates = wdm.sample_rates(&s.tree, rng);
    let nominal = ArrivalTimes::from_rates(&s.tree, &rates);
    let faulted = ArrivalTimes::from_rates(&report.tree, &rates);
    let (skew_n, skew_f) = if s.local {
        (
            local_skew(&s.tree, &nominal, pairs),
            local_skew(&report.tree, &faulted, pairs),
        )
    } else {
        (
            global_skew(&s.tree, &nominal),
            global_skew(&report.tree, &faulted),
        )
    };
    if skew_f - skew_n > s.slack {
        return (RunOutcome::TimingViolation, 0.0);
    }
    let nominal_period = clock_period(skew_n, DELTA, s.dist.tau(&s.tree));
    let degraded_period = clock_period(skew_f, DELTA, s.dist.tau(&report.tree));
    (RunOutcome::Ok, nominal_period / degraded_period)
}

/// Folds per-trial results (panics included) into a tally plus the
/// mean throughput retention over the surviving trials.
#[must_use]
pub fn tally_results(results: &[Result<(RunOutcome, f64), String>]) -> (OutcomeTally, f64) {
    let mut tally = OutcomeTally::new();
    let mut sum = 0.0;
    for r in results {
        match r {
            Ok((outcome, retention)) => {
                tally.record(*outcome);
                if outcome.is_ok() {
                    sum += retention;
                }
            }
            Err(msg) => tally.record_panic_reason(msg),
        }
    }
    let retention = if tally.ok == 0 {
        0.0
    } else {
        sum / tally.ok as f64
    };
    (tally, retention)
}

/// The default design-space manifest: every [`SCHEMES`] combination ×
/// array sizes × [`RATES`]. `fast` trims the size axis (k ∈ {4, 8})
/// the way `--fast` trims experiment trial counts.
///
/// # Errors
///
/// Returns the validation message for degenerate trial/shard counts.
pub fn default_manifest(
    seed: u64,
    trials_per_point: u64,
    shards: u64,
    checkpoint_every: u64,
    fast: bool,
) -> Result<Manifest, String> {
    let ks: &[u64] = if fast { &[4, 8] } else { &[4, 8, 16] };
    let mut points = Vec::new();
    for (scheme, topology) in SCHEMES {
        for &k in ks {
            for rate in RATES {
                points.push(GridPoint::new(scheme, topology, k, rate));
            }
        }
    }
    Manifest::new(
        "design-space",
        seed,
        trials_per_point,
        shards,
        checkpoint_every,
        points,
    )
}

/// A clocked grid cell: the scheme plus its pair list and wire-delay
/// model.
#[derive(Debug)]
pub struct ClockedCell {
    /// The scheme under test.
    pub scheme: Clocked,
    /// Communicating cell pairs (for the pipelined discipline).
    pub pairs: Vec<(CellId, CellId)>,
    /// The `m ± ε` wire-delay model trials sample from.
    pub wdm: WireDelayModel,
}

/// A grid point's prebuilt simulation state, shared (read-only) by
/// every trial of that point.
#[derive(Debug)]
pub enum Cell {
    /// A globally- or pipeline-clocked array.
    Clocked(Box<ClockedCell>),
    /// The paper's hybrid scheme on a k×k mesh of clocked blocks.
    Hybrid(Box<HybridArray>),
    /// A fully self-timed handshake chain.
    Selftimed {
        /// The chain under test.
        chain: HandshakeChain,
        /// Fault-free period, the retention baseline.
        clean_period: f64,
    },
    /// The TRIX pulse-propagation grid under fault episodes.
    Trix(TrixParams),
    /// The PALS offset-exchange mesh under fault episodes.
    Pals(PalsParams),
}

/// One self-stabilizing trial at episode rate `rate`, mapped onto the
/// grid's outcome vocabulary: a trial survives iff every skew
/// violation healed, and its "retention" is the fraction of ticks the
/// invariant held.
fn episode_outcome(
    scheme: EpisodeScheme,
    rate: f64,
    point_seed: u64,
    trial: u64,
) -> (RunOutcome, f64) {
    let recovery = RecoveryConfig::new(EP_THRESHOLD, EP_HOLD, EP_TICKS);
    let episodes = episode_config(rate);
    let (_, rep) = episode_trial(&scheme, episodes, &recovery, point_seed, trial, None);
    if rep.all_recovered() {
        (RunOutcome::Ok, rep.in_sync_fraction())
    } else {
        (RunOutcome::TimingViolation, 0.0)
    }
}

/// Builds the simulation state for one grid point.
///
/// # Errors
///
/// Returns a message for an unknown scheme/topology combination.
pub fn build_cell(point: &GridPoint) -> Result<Cell, String> {
    let k = point.size as usize;
    let n = k * k;
    let clocked = |tree: ClockTree, dist: Distribution, slack: f64, local: bool| {
        let comm = CommGraph::linear(n);
        Cell::Clocked(Box::new(ClockedCell {
            scheme: Clocked {
                tree,
                dist,
                slack,
                local,
            },
            pairs: comm.communicating_pairs(),
            wdm: WireDelayModel::new(M, EPS),
        }))
    };
    match (point.scheme.as_str(), point.topology.as_str()) {
        ("global", "spine") => {
            let comm = CommGraph::linear(n);
            let row = Layout::linear_row(&comm);
            Ok(clocked(
                spine(&comm, &row),
                Distribution::Equipotential { alpha: 1.0 },
                0.25 * DELTA,
                false,
            ))
        }
        ("global", "htree") => {
            let comm = CommGraph::linear(n);
            let comb = Layout::comb(&comm, k);
            Ok(clocked(
                htree(&comm, &comb).equalized(),
                Distribution::Equipotential { alpha: 1.0 },
                0.5 * DELTA,
                false,
            ))
        }
        ("pipelined", "htree") => {
            let comm = CommGraph::linear(n);
            let comb = Layout::comb(&comm, k);
            Ok(clocked(
                htree(&comm, &comb).equalized(),
                Distribution::Pipelined {
                    buffer_delay: 1.0,
                    spacing: SPACING,
                    unit_wire_delay: M,
                },
                0.75 * DELTA,
                true,
            ))
        }
        ("global", "quadrant") | ("pipelined", "quadrant") => {
            // The realistic quadrant/spine tree needs an even die side
            // of at least 4 (two rows and columns per quadrant).
            if k < 4 || !k.is_multiple_of(2) {
                return Err(format!(
                    "quadrant topology requires an even size >= 4, got {k}"
                ));
            }
            let comm = CommGraph::mesh(k, k);
            let layout = Layout::grid(&comm);
            let tree = sim_topo::quadrant::quadrant_spine(
                &comm,
                &layout,
                &sim_topo::quadrant::QuadrantParams::spartan3_like(k),
            )
            .into_tree();
            let (dist, slack, local) = if point.scheme == "global" {
                (Distribution::Equipotential { alpha: 1.0 }, 0.5 * DELTA, false)
            } else {
                (
                    Distribution::Pipelined {
                        buffer_delay: 1.0,
                        spacing: SPACING,
                        unit_wire_delay: M,
                    },
                    0.75 * DELTA,
                    true,
                )
            };
            // Mesh communicating pairs, not the linear chain: local
            // skew on a quadrant tree is about physical neighbours
            // straddling spine boundaries.
            Ok(Cell::Clocked(Box::new(ClockedCell {
                scheme: Clocked {
                    tree,
                    dist,
                    slack,
                    local,
                },
                pairs: comm.communicating_pairs(),
                wdm: WireDelayModel::new(M, EPS),
            })))
        }
        ("hybrid", "mesh") => Ok(Cell::Hybrid(Box::new(HybridArray::over_mesh(
            k,
            HybridParams::new(4, DELTA, M, EPS, link()),
        )))),
        ("selftimed", "chain") => {
            let chain = HandshakeChain::new(n, link(), 1.0);
            let clean_period = chain.run(TOKENS, None, None).period;
            Ok(Cell::Selftimed {
                chain,
                clean_period,
            })
        }
        ("trix", "grid") => Ok(Cell::Trix(TrixParams::new(k, k))),
        ("pals", "mesh") => Ok(Cell::Pals(PalsParams::new(k))),
        (s, t) => Err(format!("unknown grid combination `{s}/{t}`")),
    }
}

/// Builds every cell of a manifest, in point order.
///
/// # Errors
///
/// Returns the first unknown-combination message.
pub fn build_cells(manifest: &Manifest) -> Result<Vec<Cell>, String> {
    manifest.points.iter().map(build_cell).collect()
}

/// Stylized hardware-cost proxy for a grid point, in arbitrary
/// consistent units: clock wire length plus weighted buffer, latch,
/// and handshake-logic counts. It is *a model, not a measurement* —
/// only comparisons between points of the same sweep are meaningful —
/// but it is a pure function of the point, so frontier reports are
/// deterministic.
///
/// # Errors
///
/// Returns a message for an unknown scheme/topology combination.
pub fn point_cost(point: &GridPoint) -> Result<f64, String> {
    let k = point.size as f64;
    let n = k * k;
    match build_cell(point)? {
        Cell::Clocked(cell) => {
            let ClockedCell { scheme, .. } = &*cell;
            let wires = scheme.tree.total_wire_length();
            let buffers = scheme.tree.buffer_count(SPACING) as f64;
            // Pipelined distribution turns each buffer site into a
            // clocked latch stage: charge the extra sequential logic.
            let latches = if matches!(scheme.dist, Distribution::Pipelined { .. }) {
                0.5 * buffers
            } else {
                0.0
            };
            Ok(wires + 2.0 * buffers + latches)
        }
        // No global distribution hardware; per-cell local clocks and
        // inter-block handshake ports dominate.
        Cell::Hybrid(_) => Ok(1.5 * n + 2.0 * k),
        // Full handshake logic (request/acknowledge, C-elements) in
        // every cell plus nearest-neighbour links.
        Cell::Selftimed { .. } => Ok(2.5 * n + 0.5 * (n - 1.0)),
        // Triple-redundant predecessor links plus a median voter in
        // every node.
        Cell::Trix(_) => Ok(3.0 * n + 1.5 * n),
        // A local oscillator per node (as in the hybrid scheme) plus
        // four-neighbour offset-exchange ports.
        Cell::Pals(_) => Ok(1.5 * n + 2.0 * n),
    }
}

/// Runs one Monte-Carlo trial of a grid point. The fault plan derives
/// from `(point_seed, trial)` and the wire-rate sampling from `rng`
/// (whose stream is keyed to the *global* trial index by the sweep
/// runner), so the result is deterministic and shard-independent.
/// Panics are isolated and reported as the `"panic"` outcome.
///
/// The returned object is the sweep's per-trial record:
/// `{"o": outcome-label, "r": throughput-retention}`, plus a
/// `"m"` truncated-message field on panicked trials only.
pub fn run_trial(
    cell: &Cell,
    point: &GridPoint,
    point_seed: u64,
    trial: u64,
    rng: &mut SimRng,
) -> Json {
    let rates = FaultRates::uniform(point.fault_rate);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match cell {
        Cell::Clocked(c) => {
            let plan = FaultPlan::new(point_seed, trial, rates);
            clocked_trial(&c.scheme, &c.pairs, &c.wdm, &plan, rng)
        }
        Cell::Hybrid(hybrid) => {
            let plan = FaultPlan::new(point_seed, trial, rates);
            let (outcome, period) = hybrid.simulate_period_faulty(WAVES, &plan, policy());
            let retention = if outcome.is_ok() {
                hybrid.cycle_time() / period
            } else {
                0.0
            };
            (outcome, retention)
        }
        Cell::Selftimed {
            chain,
            clean_period,
        } => {
            let plan = FaultPlan::new(point_seed, trial, rates);
            let run = chain.run(TOKENS, Some((&plan, policy())), None);
            let retention = if run.outcome.is_ok() {
                clean_period / run.period
            } else {
                0.0
            };
            (run.outcome, retention)
        }
        Cell::Trix(p) => {
            episode_outcome(EpisodeScheme::Trix(*p), point.fault_rate, point_seed, trial)
        }
        Cell::Pals(p) => {
            episode_outcome(EpisodeScheme::Pals(*p), point.fault_rate, point_seed, trial)
        }
    }));
    match result {
        Ok((outcome, retention)) => Json::obj(vec![
            ("o", Json::Str(outcome.label().to_owned())),
            ("r", Json::Float(retention)),
        ]),
        Err(payload) => Json::obj(vec![
            ("o", Json::Str("panic".to_owned())),
            ("r", Json::Float(0.0)),
            (
                "m",
                Json::Str(truncate_panic_reason(&panic_message(payload.as_ref()))),
            ),
        ]),
    }
}

/// Aggregates one grid point's ordered trial records into its summary:
/// the outcome tally, survival rate, mean throughput retention over
/// surviving trials (an in-order fold, so shard merges reproduce it
/// exactly), and the [`point_cost`] proxy.
///
/// # Panics
///
/// Panics on a point whose scheme/topology [`build_cell`] rejects —
/// callers validate the manifest by building cells first.
#[must_use]
pub fn aggregate(point: &GridPoint, trials: &[Json]) -> Json {
    let mut tally = OutcomeTally::new();
    let mut sum = 0.0;
    for t in trials {
        let label = t.get("o").and_then(Json::as_str).unwrap_or("panic");
        match RunOutcome::from_label(label) {
            Some(outcome) => {
                tally.record(outcome);
                if outcome.is_ok() {
                    sum += t.get("r").and_then(Json::as_f64).unwrap_or(0.0);
                }
            }
            None => {
                let msg = t.get("m").and_then(Json::as_str).unwrap_or("");
                tally.record_panic_reason(msg);
            }
        }
    }
    let retention = if tally.ok == 0 {
        0.0
    } else {
        sum / tally.ok as f64
    };
    let cost = point_cost(point).expect("aggregate over a validated manifest");
    Json::obj(vec![
        ("trials", Json::UInt(trials.len() as u64)),
        ("outcomes", tally.to_json()),
        ("survival", Json::Float(tally.success_rate())),
        ("retention", Json::Float(retention)),
        ("cost", Json::Float(cost)),
    ])
}

/// Runs a whole manifest single-process and returns its per-trial
/// records in global order — the reference a sharded run must match.
///
/// # Errors
///
/// Returns the first unknown-combination message.
pub fn run_sweep_single(manifest: &Manifest, threads: usize) -> Result<Vec<Json>, String> {
    let cells = build_cells(manifest)?;
    Ok(run_single(manifest, threads, |pi, p, t, rng| {
        run_trial(&cells[pi], p, manifest.point_seed(pi), t, rng)
    }))
}

/// Builds the merged sweep report for this grid's aggregation.
///
/// # Panics
///
/// Panics if `results` does not hold exactly one record per trial.
#[must_use]
pub fn sweep_report(manifest: &Manifest, results: &[Json]) -> Json {
    merged_report(manifest, results, |_, p, ts| aggregate(p, ts))
}

/// The grid's frontier objectives: maximize survival and retention,
/// minimize hardware cost, compared only between points meeting the
/// same requirement (same array size at the same fault rate — a
/// smaller array is not a cheaper substitute for a bigger one).
#[must_use]
pub fn objectives() -> Vec<Objective> {
    vec![
        Objective::max("survival"),
        Objective::max("retention"),
        Objective::min("cost"),
    ]
}

/// Prunes a grid sweep report to its Pareto frontier.
///
/// # Errors
///
/// Propagates [`frontier_report`] validation failures.
pub fn sweep_frontier(report: &Json) -> Result<Json, String> {
    frontier_report(report, &["size", "fault_rate"], &objectives())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_runtime::SimRng;

    #[test]
    fn every_default_point_builds() {
        let m = default_manifest(1, 1, 1, 1, true).expect("manifest");
        assert_eq!(m.points.len(), SCHEMES.len() * 2 * RATES.len());
        let cells = build_cells(&m).expect("all combinations known");
        assert_eq!(cells.len(), m.points.len());
        for p in &m.points {
            assert!(point_cost(p).expect("cost") > 0.0);
        }
    }

    #[test]
    fn unknown_combinations_are_rejected() {
        assert!(build_cell(&GridPoint::new("global", "moebius", 4, 0.0)).is_err());
        assert!(point_cost(&GridPoint::new("quantum", "spine", 4, 0.0)).is_err());
        // The quadrant generator needs an even die side >= 4: odd or
        // tiny sizes are a manifest error, not a trial panic.
        assert!(build_cell(&GridPoint::new("global", "quadrant", 5, 0.0)).is_err());
        assert!(build_cell(&GridPoint::new("pipelined", "quadrant", 2, 0.0)).is_err());
    }

    #[test]
    fn fault_free_trials_always_survive() {
        for (scheme, topology) in SCHEMES {
            let p = GridPoint::new(scheme, topology, 4, 0.0);
            let cell = build_cell(&p).expect("cell");
            let mut rng = SimRng::for_trial(3, 0);
            let rec = run_trial(&cell, &p, 17, 0, &mut rng);
            assert_eq!(
                rec.get("o").and_then(Json::as_str),
                Some("ok"),
                "{scheme}/{topology} must survive a fault-free trial"
            );
        }
    }

    #[test]
    fn aggregate_counts_and_averages_in_order() {
        let p = GridPoint::new("global", "spine", 4, 0.0);
        let rec = |o: &str, r: f64| {
            Json::obj(vec![
                ("o", Json::Str(o.to_owned())),
                ("r", Json::Float(r)),
            ])
        };
        let s = aggregate(
            &p,
            &[rec("ok", 1.0), rec("deadlock", 0.0), rec("ok", 0.5), rec("panic", 0.0)],
        );
        assert_eq!(s.get("trials"), Some(&Json::UInt(4)));
        assert_eq!(s.get("survival"), Some(&Json::Float(0.5)));
        assert_eq!(s.get("retention"), Some(&Json::Float(0.75)));
        let outcomes = s.get("outcomes").expect("tally");
        assert_eq!(outcomes.get("panicked"), Some(&Json::UInt(1)));
        // A legacy record without "m" leaves the reason unset.
        assert_eq!(outcomes.get("panic_reason"), None);
    }

    #[test]
    fn aggregate_keeps_the_first_panic_reason() {
        let p = GridPoint::new("global", "spine", 4, 0.0);
        let boom = Json::obj(vec![
            ("o", Json::Str("panic".to_owned())),
            ("r", Json::Float(0.0)),
            ("m", Json::Str("index out of bounds".to_owned())),
        ]);
        let later = Json::obj(vec![
            ("o", Json::Str("panic".to_owned())),
            ("r", Json::Float(0.0)),
            ("m", Json::Str("second reason".to_owned())),
        ]);
        let s = aggregate(&p, &[boom, later]);
        let outcomes = s.get("outcomes").expect("tally");
        assert_eq!(outcomes.get("panicked"), Some(&Json::UInt(2)));
        assert_eq!(
            outcomes.get("panic_reason").and_then(Json::as_str),
            Some("index out of bounds")
        );
    }

    #[test]
    fn episode_cells_survive_calm_and_classify_storms() {
        for (scheme, topology) in [("trix", "grid"), ("pals", "mesh")] {
            // A non-zero episode rate still survives when every
            // violation heals — the self-stabilizing contract.
            let p = GridPoint::new(scheme, topology, 4, 0.05);
            let cell = build_cell(&p).expect("cell");
            let mut rng = SimRng::for_trial(3, 0);
            let rec = run_trial(&cell, &p, 17, 0, &mut rng);
            let o = rec.get("o").and_then(Json::as_str).expect("outcome");
            assert!(
                o == "ok" || o == "timing",
                "{scheme}/{topology} episode trial classifies, got {o}"
            );
            let r = rec.get("r").and_then(Json::as_f64).expect("retention");
            assert!((0.0..=1.0).contains(&r));
        }
    }

    #[test]
    fn cost_separates_the_schemes() {
        let at = |scheme: &str, topo: &str| {
            point_cost(&GridPoint::new(scheme, topo, 8, 0.0)).expect("cost")
        };
        // Pipelining the H-tree costs strictly more than equipotential
        // drive of the same tree; same for the quadrant tree.
        assert!(at("pipelined", "htree") > at("global", "htree"));
        assert!(at("pipelined", "quadrant") > at("global", "quadrant"));
        // Full self-timing is the most hardware-hungry option.
        assert!(at("selftimed", "chain") > at("hybrid", "mesh"));
    }
}
