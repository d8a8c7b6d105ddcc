//! Per-shard vitals journals: live progress next to the checkpoints.
//!
//! A checkpoint is the shard's durable state; its *vitals* are how the
//! shard is getting there — trials/sec, ETA, worker utilization. At
//! every checkpoint boundary, the one that completes the shard
//! included, the runner appends one line to `shard-N.vitals` in the
//! checkpoint journal's line codec: a 16-hex checksum, a space, the
//! compact JSON. The file's intact line count therefore grows by one
//! per boundary, across resumes too, and holds still once its writer
//! is gone: `sweep_shard --status` counts the lines twice, `--probe-ms`
//! apart, to tell an interrupted shard from a slow one. The last line
//! of a finished shard has `completed == hi - lo`.
//!
//! Vitals are purely observational: losing the file loses no work. A
//! kill mid-append leaves a torn last line, which [`Vitals::load`]
//! drops and the next run cuts away before it appends.
//!
//! All rate/ETA fields are volatile (they depend on the machine and
//! the moment); the identity fields (`manifest_digest`, `shard`, `lo`,
//! `hi`) are deterministic and let `--status` refuse to mix sweeps.

use crate::checkpoint::{check_progress, decode_lines, Journal};
use crate::manifest::{req_f64, req_str, req_u64};
use sim_observe::Json;
use sim_runtime::SweepStats;

/// One shard's progress at one checkpoint boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Vitals {
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
}

impl Vitals {
    /// Builds vitals from the identity fields plus the running
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
    ) -> Vitals {
        let tps = stats.items_per_sec();
        let remaining = (hi - lo).saturating_sub(completed);
        let eta_ms = if tps > 0.0 {
            remaining as f64 / tps * 1e3
        } else {
            0.0
        };
        Vitals {
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
        }
    }

    /// The vitals as one journal line's JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
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
        ])
    }

    /// Parses and validates one vitals line's JSON object.
    ///
    /// # Errors
    ///
    /// Rejects missing or mistyped fields and progress past the range
    /// end.
    pub fn from_json(value: &Json) -> Result<Vitals, String> {
        let vitals = Vitals {
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
        };
        check_progress("vitals", vitals.lo, vitals.completed, vitals.hi)?;
        Ok(vitals)
    }

    /// Reads a vitals journal: its last intact line, and how many
    /// intact lines it holds. A torn last line is dropped.
    ///
    /// # Errors
    ///
    /// Returns a message for an unreadable file, one with no intact
    /// line, a damaged line with lines after it, and a last line that
    /// is not valid vitals.
    pub fn load(path: &str) -> Result<(Vitals, u64), String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read vitals `{path}`: {e}"))?;
        let (lines, _) =
            decode_lines(&bytes).map_err(|n| format!("vitals `{path}` is damaged at line {n}"))?;
        let last = lines
            .last()
            .ok_or_else(|| format!("vitals `{path}` holds no intact line"))?;
        Ok((Vitals::from_json(last)?, lines.len() as u64))
    }
}

/// The conventional vitals path for shard `shard` under `dir`,
/// sibling to [`shard_path`](crate::shard_path).
#[must_use]
pub fn vitals_path(dir: &str, shard: u64) -> String {
    format!("{dir}/shard-{shard}.vitals")
}

impl Journal {
    /// Opens the vitals journal at `path` for appending. A torn last
    /// line is cut away first, so the next line starts clean; a
    /// damaged or unreadable file starts over.
    pub(crate) fn open_vitals(path: &str) -> Journal {
        let intact = std::fs::read(path).ok().and_then(|bytes| match decode_lines(&bytes) {
            Ok((_, intact)) => Some(intact as u64),
            Err(n) => {
                eprintln!("warning: restarting vitals `{path}`, damaged at line {n}");
                None
            }
        });
        intact
            .and_then(|intact| Journal::resume(path, intact).ok())
            .unwrap_or_else(|| Journal::fresh(path, String::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::push_line;
    use sim_runtime::ParallelSweep;

    fn tmp_path(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("sim_sweep_vitals_{}_{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn demo(completed: u64) -> Vitals {
        Vitals {
            manifest_digest: "00aa11bb22cc33dd".to_owned(),
            shard: 2,
            lo: 20,
            hi: 30,
            completed,
            workers: 3,
            trials_per_sec: 2_000.0,
            eta_ms: 3.0,
            utilization: 0.75,
            wall_ms: 2.0,
        }
    }

    /// Appends one line, as a runner does at a boundary.
    fn append(log: &mut Journal, vitals: &Vitals) {
        log.push(&vitals.to_json());
        log.flush().expect("append");
    }

    /// A journal of `n` lines, as a runner appends them.
    fn journal(n: u64) -> String {
        let mut text = String::new();
        for completed in 1..=n {
            push_line(&mut text, &demo(completed).to_json());
        }
        text
    }

    #[test]
    fn appends_round_trip_and_leave_no_tmp() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut log = Journal::open_vitals(&path);
        assert!(!std::path::Path::new(&path).exists(), "created at the first append");
        for completed in 1..=3 {
            append(&mut log, &demo(completed));
            assert_eq!(Vitals::load(&path).expect("load"), (demo(completed), completed));
        }
        assert_eq!(std::fs::read_to_string(&path).expect("read"), journal(3));
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_truncation_reads_as_its_intact_prefix() {
        // A kill can stop an append at any byte.
        let path = tmp_path("every_offset");
        let full = journal(4);
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).expect("truncated vitals");
            let intact = full[..cut].matches('\n').count() as u64;
            match Vitals::load(&path) {
                Ok((last, lines)) => {
                    assert_eq!((last, lines), (demo(intact), intact), "offset {cut}");
                }
                Err(err) => assert!(intact == 0 && err.contains("no intact"), "offset {cut}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopening_cuts_a_torn_line_before_appending() {
        let path = tmp_path("torn");
        std::fs::write(&path, format!("{}0123abcd {{\"shard\":2", journal(2))).expect("torn");
        assert_eq!(Vitals::load(&path).expect("torn tail dropped").1, 2);
        append(&mut Journal::open_vitals(&path), &demo(3));
        assert_eq!(std::fs::read_to_string(&path).expect("read"), journal(3));
        // Damage ahead of intact lines cannot come from a torn append:
        // readers refuse it, and the next run starts the file over.
        let mut damaged = journal(3);
        damaged.replace_range(0..1, if damaged.starts_with('0') { "1" } else { "0" });
        std::fs::write(&path, damaged).expect("damaged");
        assert!(Vitals::load(&path).expect_err("damage").contains("damaged at line 1"));
        append(&mut Journal::open_vitals(&path), &demo(1));
        assert_eq!(std::fs::read_to_string(&path).expect("read"), journal(1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn from_stats_projects_eta_from_the_observed_rate() {
        let sweep = ParallelSweep::new(2);
        let (out, stats, _) = sweep.run_timed(0..8, 7, |g, _| g);
        assert_eq!(out.len(), 8);
        let vitals = Vitals::from_stats("d", 0, 0, 20, 8, 5.0, &stats);
        assert_eq!(vitals.completed, 8);
        assert!(vitals.trials_per_sec > 0.0, "8 trials ran: rate is measurable");
        let expect = 12.0 / vitals.trials_per_sec * 1e3;
        assert!((vitals.eta_ms - expect).abs() < 1e-6, "eta follows the rate");
        assert!((0.0..=1.0).contains(&vitals.utilization));
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
        let vitals = Vitals::from_stats("d", 0, 0, 10, 0, 0.0, &stats);
        assert_eq!(vitals.eta_ms, 0.0);
    }

    #[test]
    fn validation_rejects_inconsistent_lines() {
        // lo 20 + 11 > hi 30
        assert!(Vitals::from_json(&demo(11).to_json()).is_err());
        let hostile = Vitals {
            lo: u64::MAX,
            ..demo(1)
        };
        assert!(Vitals::from_json(&hostile.to_json())
            .expect_err("lo overflow")
            .contains("overruns"));
        let missing = Json::obj(vec![("manifest_digest", Json::Str("d".to_owned()))]);
        assert!(Vitals::from_json(&missing).is_err());
    }

    #[test]
    fn paths_sit_next_to_checkpoints() {
        assert_eq!(vitals_path("/tmp/sweep", 3), "/tmp/sweep/shard-3.vitals");
        assert_eq!(crate::shard_path("/tmp/sweep", 3), "/tmp/sweep/shard-3.json");
    }
}
