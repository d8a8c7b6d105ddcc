//! One fault-episode trial, shared by e13 and the design-space grid's
//! TRIX/PALS cells: derive the trial's episode schedule, drive a
//! phase-domain scheme through it tick by tick, and measure how its
//! skew invariant breaks and heals.

use clock_tree::prelude::{RigidGrid, TrixGrid, TrixParams};
use selftimed::prelude::{PalsMesh, PalsParams};
use sim_faults::{
    measure_recovery, Episode, EpisodeConfig, EpisodePlan, RecoveryConfig, RecoveryReport,
};
use sim_observe::TraceBuf;

/// A phase-domain synchronization scheme that faces fault episodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpisodeScheme {
    /// A rigid distribution network ([`RigidGrid`]): `nodes` sinks
    /// whose clockless sinks drift by up to `drift` per tick.
    Rigid {
        /// Number of clock sinks.
        nodes: usize,
        /// Free-run drift magnitude of a faulty sink.
        drift: f64,
    },
    /// The TRIX pulse-propagation grid.
    Trix(TrixParams),
    /// The PALS offset-exchange mesh.
    Pals(PalsParams),
}

impl EpisodeScheme {
    /// Number of fault sites (nodes) the scheme exposes.
    #[must_use]
    pub fn sites(&self) -> usize {
        match self {
            EpisodeScheme::Rigid { nodes, .. } => *nodes,
            EpisodeScheme::Trix(p) => p.rows * p.cols,
            EpisodeScheme::Pals(p) => p.k * p.k,
        }
    }
}

/// Runs one trial: the episode plan of `(plan_seed, trial)` under
/// `episodes` strikes the scheme's sites, the scheme is simulated from
/// a seed derived from the same pair, and `measure_recovery` judges
/// its skew under `recovery` (recording violation spans into `trace`
/// when given). Returns the number of struck sites and the report.
/// Deterministic in `(plan_seed, trial)` alone.
#[must_use]
pub fn episode_trial(
    scheme: &EpisodeScheme,
    episodes: EpisodeConfig,
    recovery: &RecoveryConfig,
    plan_seed: u64,
    trial: u64,
    trace: Option<&mut TraceBuf>,
) -> (u64, RecoveryReport) {
    let plan = EpisodePlan::new(plan_seed, trial, episodes);
    // Precompute the per-site schedule once; the per-tick query is
    // then a branch and an interval test.
    let schedule: Vec<Option<Episode>> = (0..scheme.sites() as u64)
        .map(|s| plan.episode(s))
        .collect();
    let struck = schedule.iter().flatten().count() as u64;
    let active = |s: u64, t: u64| schedule[s as usize].is_some_and(|e| e.active_at(t));
    let sim_seed = plan_seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let report = match *scheme {
        EpisodeScheme::Rigid { nodes, drift } => {
            let mut g = RigidGrid::new(sim_seed, nodes, drift);
            measure_recovery(recovery, |t| g.step(|s| active(s, t)), trace)
        }
        EpisodeScheme::Trix(p) => {
            let mut g = TrixGrid::new(sim_seed, p);
            measure_recovery(recovery, |t| g.step(|s| active(s, t)), trace)
        }
        EpisodeScheme::Pals(p) => {
            let mut m = PalsMesh::new(sim_seed, p);
            measure_recovery(recovery, |t| m.step(|s| active(s, t)), trace)
        }
    };
    (struck, report)
}
