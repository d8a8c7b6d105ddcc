//! Per-shard heartbeat files: live progress next to the checkpoints.
//!
//! A checkpoint is the shard's durable state; a heartbeat is its
//! *vital signs* — trials/sec, ETA, worker utilization — written
//! atomically after every checkpoint but the one that completes the
//! shard, so an operator (or `sweep_shard --status`) can watch a long
//! sweep without attaching to the process. Heartbeats are purely observational: removing one
//! never loses work, and a resuming shard overwrites whatever it
//! finds. The runner deletes the heartbeat when the shard completes
//! its range, so a *lingering* heartbeat marks a shard that is either
//! still running or was interrupted.
//!
//! All rate/ETA fields are volatile (they depend on the machine and
//! the moment); the identity fields (`manifest_digest`, `shard`, `lo`,
//! `hi`) are deterministic and let `--status` refuse to mix sweeps.

use crate::manifest::{req_f64, req_str, req_u64};
use sim_observe::Json;
use sim_runtime::SweepStats;

/// Schema identifier of the heartbeat JSON document.
pub const HEARTBEAT_SCHEMA: &str = "vlsi-sync/sweep-heartbeat";
/// Current heartbeat schema version. Version 2 added the monotonic
/// `tick`; version-1 documents still parse with `tick` 0.
pub const HEARTBEAT_SCHEMA_VERSION: u64 = 2;

/// One shard's live progress snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Heartbeat {
    /// [`Manifest::digest`](crate::Manifest::digest) of the sweep the
    /// shard belongs to.
    pub manifest_digest: String,
    /// Shard index within the manifest's partition.
    pub shard: u64,
    /// First global trial index this shard owns (inclusive).
    pub lo: u64,
    /// One past the last global trial index this shard owns.
    pub hi: u64,
    /// Trials completed so far (checkpointed, not merely attempted).
    pub completed: u64,
    /// Worker threads this invocation actually uses.
    pub workers: u64,
    /// Observed throughput of this invocation so far, trials per
    /// second.
    pub trials_per_sec: f64,
    /// Projected milliseconds to finish the remaining range at the
    /// observed rate; 0 when the rate is unmeasurable.
    pub eta_ms: f64,
    /// Mean worker busy-fraction of this invocation so far, in
    /// `[0, 1]`.
    pub utilization: f64,
    /// Wall-clock milliseconds this invocation has been running.
    pub wall_ms: f64,
    /// Monotonic write counter. The runner increments it on every
    /// heartbeat save and carries it across resumes (it reloads the
    /// lingering heartbeat before overwriting), so *any* two reads of
    /// a live shard eventually differ — a tick that holds still is how
    /// `--status` tells an interrupted shard from a slow one.
    pub tick: u64,
}

impl Heartbeat {
    /// Builds a heartbeat from the identity fields plus the running
    /// [`SweepStats`] of the invocation's trials so far.
    #[must_use]
    pub fn from_stats(
        manifest_digest: &str,
        shard: u64,
        lo: u64,
        hi: u64,
        completed: u64,
        wall_ms: f64,
        stats: &SweepStats,
    ) -> Heartbeat {
        let tps = stats.items_per_sec();
        let remaining = (hi - lo).saturating_sub(completed);
        let eta_ms = if tps > 0.0 {
            remaining as f64 / tps * 1e3
        } else {
            0.0
        };
        Heartbeat {
            manifest_digest: manifest_digest.to_owned(),
            shard,
            lo,
            hi,
            completed,
            workers: stats.workers as u64,
            trials_per_sec: tps,
            eta_ms,
            utilization: stats.utilization(),
            wall_ms,
            tick: 0,
        }
    }

    /// Sets the monotonic write counter; see [`Heartbeat::tick`].
    #[must_use]
    pub fn with_tick(mut self, tick: u64) -> Heartbeat {
        self.tick = tick;
        self
    }

    /// Trials still to run.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        (self.hi - self.lo).saturating_sub(self.completed)
    }

    /// Completed fraction of the shard's range, in `[0, 1]`.
    #[must_use]
    pub fn progress(&self) -> f64 {
        let total = self.hi - self.lo;
        if total == 0 {
            1.0
        } else {
            self.completed as f64 / total as f64
        }
    }

    /// The heartbeat as its JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(HEARTBEAT_SCHEMA.to_owned())),
            ("schema_version", Json::UInt(HEARTBEAT_SCHEMA_VERSION)),
            ("manifest_digest", Json::Str(self.manifest_digest.clone())),
            ("shard", Json::UInt(self.shard)),
            ("lo", Json::UInt(self.lo)),
            ("hi", Json::UInt(self.hi)),
            ("completed", Json::UInt(self.completed)),
            ("workers", Json::UInt(self.workers)),
            ("trials_per_sec", Json::Float(self.trials_per_sec)),
            ("eta_ms", Json::Float(self.eta_ms)),
            ("utilization", Json::Float(self.utilization)),
            ("wall_ms", Json::Float(self.wall_ms)),
            ("tick", Json::UInt(self.tick)),
        ])
    }

    /// Parses and validates a heartbeat document.
    ///
    /// # Errors
    ///
    /// Rejects wrong schema/version, missing or mistyped fields, and
    /// progress past the range end.
    pub fn from_json(value: &Json) -> Result<Heartbeat, String> {
        let schema = req_str(value, "schema")?;
        if schema != HEARTBEAT_SCHEMA {
            return Err(format!("not a sweep heartbeat: schema `{schema}`"));
        }
        let version = req_u64(value, "schema_version")?;
        if version == 0 || version > HEARTBEAT_SCHEMA_VERSION {
            return Err(format!("unsupported heartbeat schema version {version}"));
        }
        // Version 1 predates the tick counter; a missing tick reads as
        // 0, which `--status` treats like any other stale value.
        let tick = if version >= 2 { req_u64(value, "tick")? } else { 0 };
        let hb = Heartbeat {
            manifest_digest: req_str(value, "manifest_digest")?,
            shard: req_u64(value, "shard")?,
            lo: req_u64(value, "lo")?,
            hi: req_u64(value, "hi")?,
            completed: req_u64(value, "completed")?,
            workers: req_u64(value, "workers")?,
            trials_per_sec: req_f64(value, "trials_per_sec")?,
            eta_ms: req_f64(value, "eta_ms")?,
            utilization: req_f64(value, "utilization")?,
            wall_ms: req_f64(value, "wall_ms")?,
            tick,
        };
        if hb.lo + hb.completed > hb.hi {
            return Err(format!(
                "heartbeat progress {}+{} overruns range end {}",
                hb.lo, hb.completed, hb.hi
            ));
        }
        Ok(hb)
    }

    /// Writes the heartbeat atomically with
    /// [`sim_runtime::write_atomic`] (temp file + rename).
    ///
    /// # Errors
    ///
    /// Propagates the write or rename failure.
    pub fn save_atomic(&self, path: &str) -> std::io::Result<()> {
        sim_runtime::write_atomic(path, &self.to_json().to_pretty())
    }

    /// Reads and parses a heartbeat file.
    ///
    /// # Errors
    ///
    /// Returns a message for an unreadable file, malformed JSON, or an
    /// invalid document.
    pub fn load(path: &str) -> Result<Heartbeat, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read heartbeat `{path}`: {e}"))?;
        let value = sim_observe::parse(&text)
            .map_err(|e| format!("heartbeat `{path}` is not valid JSON: {e}"))?;
        Heartbeat::from_json(&value)
    }
}

/// The conventional heartbeat path for shard `shard` under `dir`,
/// sibling to [`shard_path`](crate::shard_path).
#[must_use]
pub fn heartbeat_path(dir: &str, shard: u64) -> String {
    format!("{dir}/shard-{shard}.hb.json")
}

/// Best-effort removal of a heartbeat file (and any stale `.tmp`).
/// Called when a shard completes; losing the race is harmless.
pub fn remove_heartbeat(path: &str) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(format!("{path}.tmp"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_runtime::ParallelSweep;

    fn tmp_path(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("sim_sweep_hb_{}_{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn demo() -> Heartbeat {
        Heartbeat {
            manifest_digest: "00aa11bb22cc33dd".to_owned(),
            shard: 2,
            lo: 20,
            hi: 30,
            completed: 4,
            workers: 3,
            trials_per_sec: 2_000.0,
            eta_ms: 3.0,
            utilization: 0.75,
            wall_ms: 2.0,
            tick: 5,
        }
    }

    #[test]
    fn round_trips_and_leaves_no_tmp() {
        let path = tmp_path("roundtrip");
        demo().save_atomic(&path).expect("save");
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        let back = Heartbeat::load(&path).expect("load");
        assert_eq!(back, demo());
        assert_eq!(back.remaining(), 6);
        assert!((back.progress() - 0.4).abs() < 1e-12);
        remove_heartbeat(&path);
        assert!(!std::path::Path::new(&path).exists());
    }

    #[test]
    fn from_stats_projects_eta_from_the_observed_rate() {
        let sweep = ParallelSweep::new(2);
        let (out, stats, _) = sweep.run_timed(0..8, 7, |g, _| g);
        assert_eq!(out.len(), 8);
        let hb = Heartbeat::from_stats("d", 0, 0, 20, 8, 5.0, &stats).with_tick(3);
        assert_eq!(hb.completed, 8);
        assert_eq!(hb.tick, 3);
        assert_eq!(hb.remaining(), 12);
        assert!(hb.trials_per_sec > 0.0, "8 trials ran: rate is measurable");
        let expect = 12.0 / hb.trials_per_sec * 1e3;
        assert!((hb.eta_ms - expect).abs() < 1e-6, "eta follows the rate");
        assert!((0.0..=1.0).contains(&hb.utilization));
    }

    #[test]
    fn zero_rate_means_zero_eta_not_a_panic() {
        let stats = SweepStats {
            trials: 0,
            workers: 1,
            wall: std::time::Duration::ZERO,
            worker_trials: vec![0],
            worker_busy: vec![std::time::Duration::ZERO],
            trial_ns: sim_observe::LogHistogram::new(),
        };
        let hb = Heartbeat::from_stats("d", 0, 0, 10, 0, 0.0, &stats).with_tick(1);
        assert_eq!(hb.eta_ms, 0.0);
    }

    #[test]
    fn version_one_documents_parse_with_tick_zero() {
        let mut v1 = demo().to_json();
        if let Json::Object(pairs) = &mut v1 {
            pairs.retain(|(k, _)| k != "tick");
            pairs[1].1 = Json::UInt(1);
        }
        let hb = Heartbeat::from_json(&v1).expect("v1 heartbeat still parses");
        assert_eq!(hb.tick, 0, "missing tick reads as zero");

        let mut future = demo().to_json();
        if let Json::Object(pairs) = &mut future {
            pairs[1].1 = Json::UInt(HEARTBEAT_SCHEMA_VERSION + 1);
        }
        assert!(Heartbeat::from_json(&future).is_err(), "future versions rejected");
    }

    #[test]
    fn validation_rejects_foreign_and_inconsistent_documents() {
        let mut wrong_schema = demo().to_json();
        if let Json::Object(pairs) = &mut wrong_schema {
            pairs[0].1 = Json::Str("vlsi-sync/sweep-checkpoint".to_owned());
        }
        assert!(Heartbeat::from_json(&wrong_schema).is_err());

        let mut overrun = demo();
        overrun.completed = 11; // lo 20 + 11 > hi 30
        assert!(Heartbeat::from_json(&overrun.to_json()).is_err());

        let missing = Json::obj(vec![
            ("schema", Json::Str(HEARTBEAT_SCHEMA.to_owned())),
            ("schema_version", Json::UInt(HEARTBEAT_SCHEMA_VERSION)),
        ]);
        assert!(Heartbeat::from_json(&missing).is_err());
    }

    #[test]
    fn paths_sit_next_to_checkpoints() {
        assert_eq!(heartbeat_path("/tmp/sweep", 3), "/tmp/sweep/shard-3.hb.json");
        assert_eq!(crate::shard_path("/tmp/sweep", 3), "/tmp/sweep/shard-3.json");
    }
}
