//! Zero-dependency simulation runtime for the Fisher–Kung
//! reproduction.
//!
//! Every Monte-Carlo experiment in the workspace — the Section III
//! skew sampling (E1), the Section VII fabrication-yield curves (E6),
//! the metastability trials behind the hybrid scheme (E5) — is a loop
//! over *independent* trials. This crate provides the three pieces
//! such loops need, with no crates.io dependencies so the tier-1 gate
//! (`cargo build --release && cargo test -q`) runs fully offline:
//!
//! * [`rng`] — a seedable, splittable PRNG ([`SimRng`]:
//!   SplitMix64-seeded xoshiro256++) behind a small [`Rng`] trait
//!   whose surface (`gen_f64`, `gen_bool`, `gen_range`, `shuffle`)
//!   mirrors the `rand` call sites it replaced, plus the stateless
//!   keyed hash [`signed_unit`] (and its cached-prefix form
//!   [`HashPrefix`]) behind per-site and per-link draws;
//! * [`dist`] — Gaussian (Box–Muller) sampling on top of any [`Rng`],
//!   plus the `mean_std`/`linear_fit` summaries and the
//!   [`total_order_key`] map that picks order statistics with integer
//!   `min`/`max`;
//! * [`sweep`] — [`ParallelSweep`], a `std::thread::scope` executor
//!   that fans a range of independent trials across worker threads
//!   with per-trial child seeds, so results are **bit-identical
//!   regardless of thread count** (`SIM_THREADS=1` reproduces
//!   `SIM_THREADS=8`) and of how the range is sharded. Its whole trial
//!   API is `run`, `run_timed` (adds wall-clock stats and per-trial
//!   spans), `run_isolated` (catches panicking trials) and `count`;
//! * [`experiment`] — the [`Experiment`] trait, [`ExpConfig`]
//!   (`--trials/--seed/--threads/--fast/--json/--vcd/--trace/--list`),
//!   and the [`Registry`] of `e1`–`e14` that the `experiments` binary
//!   runs;
//! * [`report`] — [`Report`] (streaming text + structured tables +
//!   [`sim_observe::Metrics`]) and the versioned JSON report
//!   ([`json_core`]/[`json_full`]) behind `--json`;
//! * [`table`] — the fixed-column plain-text [`Table`] writer reports
//!   capture both textually and structurally;
//! * [`cli`] — the flag cursor and the `--help`→0 / usage→2 contract
//!   every binary in the workspace parses its command line with.
//!
//! # Examples
//!
//! ```
//! use sim_runtime::{ParallelSweep, Rng, SimRng};
//!
//! // A deterministic 1000-trial Monte-Carlo estimate of pi, identical
//! // for any worker count.
//! let hits = |threads: usize| -> usize {
//!     ParallelSweep::new(threads)
//!         .run(0..1000, 42, |_trial, rng| {
//!             let (x, y) = (rng.gen_f64(), rng.gen_f64());
//!             usize::from(x * x + y * y <= 1.0)
//!         })
//!         .into_iter()
//!         .sum()
//! };
//! assert_eq!(hits(1), hits(8));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod dist;
pub mod experiment;
pub mod report;
pub mod rng;
pub mod sweep;
pub mod table;

pub use dist::{
    from_total_order_key, linear_fit, mean_std, sample_normal, total_order_key, Gaussian,
};
pub use experiment::{
    run_cli_args, run_experiment, take_artifact_failure, write_artifact, write_with_parents,
    ExpConfig, Experiment, Registry,
};
pub use report::{
    json_core, json_full, Report, RunInfo, TableSection, REPORT_SCHEMA, REPORT_SCHEMA_VERSION,
};
pub use rng::{signed_unit, HashPrefix, Rng, SampleRange, SimRng, SliceRandom, SplitMix64};
pub use sweep::{panic_message, ParallelSweep, SweepStats, TrialSpan};
pub use table::Table;

/// One-stop imports for experiment code.
pub mod prelude {
    pub use crate::dist::{sample_normal, Gaussian};
    pub use crate::experiment::{
        run_cli_args, run_experiment, take_artifact_failure, write_artifact, ExpConfig, Experiment,
        Registry,
    };
    pub use crate::report::{json_core, json_full, Report, RunInfo};
    pub use crate::rng::{Rng, SimRng, SliceRandom};
    pub use crate::sweep::{panic_message, ParallelSweep, SweepStats, TrialSpan};
    pub use crate::table::Table;
}
