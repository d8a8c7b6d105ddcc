//! Checkpointed mega-sweeps for the Fisher–Kung reproduction.
//!
//! The workspace's Monte-Carlo sweeps are loops over *independent*
//! trials whose RNG streams derive from `(seed, global_trial_index)`
//! alone ([`sim_runtime::ParallelSweep`]). That makes trials order-free
//! and location-free: any process can run any contiguous slice of the
//! global trial range and the results concatenate into exactly the
//! vector a single process would have produced. This crate builds the
//! machinery that exploits it:
//!
//! * [`manifest`] — a schema-versioned JSON **sweep manifest**
//!   ([`Manifest`]) describing the grid ([`GridPoint`]: scheme ×
//!   topology × size × fault-rate), trial counts, master seed, and the
//!   shard partition, with a content [digest](Manifest::digest) that
//!   pins checkpoints to the manifest they belong to;
//! * [`checkpoint`] — **append-only checkpoint journals**
//!   ([`Checkpoint`]): the completed prefix of a shard's results, one
//!   checksummed line per result after a header line. Each boundary
//!   appends only the new results, so every result is written once. A
//!   `kill -9` mid-append leaves at most a torn last line, which
//!   loading drops and resuming truncates, so a killed shard resumes
//!   exactly where its last boundary left it. Nothing is fsynced: the
//!   files survive a killed process, not a power loss;
//! * [`shard`] — the **shard runner** ([`run_shard`]): one
//!   barrier-free pass over a shard's disjoint trial range with
//!   auto-resume and a `stop_after` budget for testing kill/resume;
//!   the calling thread appends to the journal as the in-order prefix
//!   reaches every N-th trial, while the workers keep running trials
//!   past it;
//! * [`vitals`] — **live progress journals** ([`Vitals`]): one
//!   checksummed line appended after every checkpoint, in the
//!   checkpoint journal's line codec, with trials/sec, ETA, and worker
//!   utilization, so `sweep_shard --status` can watch a sweep from the
//!   outside and tell a stalled shard by a line count that holds still;
//! * [`merge`] — the **deterministic merge** ([`load_shards`],
//!   [`merged_report`]): folds shard checkpoints — completed in any
//!   order — into one report byte-identical to a single-process run;
//! * [`frontier`] — **Pareto pruning** ([`frontier_report`]): drops
//!   grid points dominated within their environment group (worse on
//!   every objective, strictly worse on at least one) and emits the
//!   surviving design frontier.
//!
//! # Examples
//!
//! ```
//! use sim_observe::Json;
//! use sim_sweep::prelude::*;
//!
//! let points = vec![GridPoint::new("global", "spine", 4, 0.0)];
//! let m = Manifest::new("demo", 7, 10, 3, 4, points).unwrap();
//! // Trials 0..10 split into contiguous shard ranges 0..4, 4..7, 7..10.
//! assert_eq!(m.shard_range(0), 0..4);
//! assert_eq!(m.shard_range(2), 7..10);
//! // A shard-free single-process run of the same manifest:
//! let all = run_single(&m, 1, |_, _, trial, _| Json::UInt(trial));
//! assert_eq!(all.len(), 10);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod frontier;
pub mod manifest;
pub mod merge;
pub mod shard;
pub mod vitals;

pub use checkpoint::{Checkpoint, CHECKPOINT_SCHEMA, CHECKPOINT_SCHEMA_VERSION};
pub use frontier::{frontier_report, Objective, FRONTIER_SCHEMA, FRONTIER_SCHEMA_VERSION};
pub use manifest::{GridPoint, Manifest, MANIFEST_SCHEMA, MANIFEST_SCHEMA_VERSION};
pub use merge::{load_shards, merged_report, SWEEP_REPORT_SCHEMA, SWEEP_REPORT_SCHEMA_VERSION};
pub use shard::{run_shard, run_single, shard_path, ShardOpts, ShardStatus};
pub use vitals::{vitals_path, Vitals};

/// One-stop imports for sweep-driving code.
pub mod prelude {
    pub use crate::checkpoint::Checkpoint;
    pub use crate::frontier::{frontier_report, Objective};
    pub use crate::manifest::{GridPoint, Manifest};
    pub use crate::merge::{load_shards, merged_report};
    pub use crate::shard::{run_shard, run_single, shard_path, ShardOpts, ShardStatus};
    pub use crate::vitals::{vitals_path, Vitals};
}
