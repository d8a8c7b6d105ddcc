//! Shard runners: execute one shard's disjoint trial range with
//! append-only checkpoints and automatic resume.
//!
//! A shard is one pass of [`ParallelSweep::stream`] over its range:
//! the workers never wait at a checkpoint. Results come back to the
//! calling thread in trial order, and that thread queues each one as a
//! journal line (see [`checkpoint`](crate::checkpoint)). Each time the
//! completed prefix reaches a boundary (the resume point plus a
//! multiple of `checkpoint_every`, and the end of a `stop_after`
//! budget) it appends the queued lines in one write, then appends one
//! line to the shard's [vitals](crate::vitals), while the workers keep
//! claiming trials past it. A `kill -9` therefore leaves the last
//! boundary's prefix on disk, plus at most a torn last line in each
//! file that a resume truncates away, and the journal holds the same
//! bytes for every thread count.
//!
//! Because every trial's RNG stream is `SimRng::for_trial(seed, g)`
//! with `g` the *global* trial index, the runner produces exactly the
//! results a single-process run would have produced for those indices
//! — regardless of thread count, of which process runs the shard, or
//! of how many kill/resume cycles it took.

use crate::checkpoint::Journal;
use crate::manifest::{GridPoint, Manifest};
use crate::vitals::{vitals_path, Vitals};
use sim_observe::Json;
use sim_runtime::{ParallelSweep, SimRng};
use std::ops::ControlFlow;
use std::time::Instant;

/// Execution knobs for [`run_shard`] — all volatile: none of them can
/// change the results, only how fast (or whether) they are produced.
#[derive(Debug, Clone)]
pub struct ShardOpts {
    /// Worker threads for the trial loop.
    pub threads: usize,
    /// Stop (with checkpoint) after at most this many trials *this
    /// invocation* — the deterministic stand-in for `kill -9` in tests.
    pub stop_after: Option<u64>,
    /// Sleep this long inside every trial. Testing-only: slows a shard
    /// down so a smoke test can reliably kill it mid-run.
    pub throttle_ms: u64,
}

impl Default for ShardOpts {
    /// Threads from [`ParallelSweep::from_env`] (`SIM_THREADS`, else
    /// every core), no budget, no throttle.
    fn default() -> Self {
        ShardOpts {
            threads: ParallelSweep::from_env().threads(),
            stop_after: None,
            throttle_ms: 0,
        }
    }
}

/// What one [`run_shard`] invocation did.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: u64,
    /// First global trial of the shard's range.
    pub lo: u64,
    /// One past the last global trial of the shard's range.
    pub hi: u64,
    /// Trials already done when this invocation started (resume
    /// offset; 0 for a fresh start).
    pub resumed_at: u64,
    /// Trials done when this invocation stopped.
    pub completed: u64,
    /// True when a `stop_after` budget stopped the shard before its
    /// range was finished.
    pub interrupted: bool,
    /// Checkpoints written by this invocation.
    pub checkpoints: u64,
    /// Wall-clock milliseconds this invocation spent running trials.
    pub wall_ms: f64,
}

/// The conventional checkpoint path for shard `shard` under `dir`.
#[must_use]
pub fn shard_path(dir: &str, shard: u64) -> String {
    format!("{dir}/shard-{shard}.json")
}

/// Runs (or resumes) shard `shard` of `manifest`, checkpointing into
/// [`shard_path`]`(dir, shard)` every `manifest.checkpoint_every`
/// trials while the workers run on (see the module docs). The trial
/// function receives `(point_index, point, trial_within_point, rng)`
/// and returns the trial's JSON result; it must be deterministic in
/// those inputs.
///
/// A valid checkpoint for the same manifest digest resumes the shard
/// exactly where it stopped, with a torn last line truncated away. An
/// unusable one (external damage, or a version-1 file) is discarded
/// and the shard restarts. Either way the final results are identical.
///
/// # Errors
///
/// Returns a message when `shard` is not below `manifest.shards`
/// (nothing is run or written), when a checkpoint cannot be written —
/// the workers stop claiming trials at once, so the error comes back
/// after the trials in flight, not at the end of the range — or when
/// an existing checkpoint belongs to a different manifest or shard.
///
/// # Panics
///
/// Re-raises a panicking trial's panic once the other workers have
/// stopped; the checkpoint on disk is then the last complete prefix
/// before it.
pub fn run_shard<F>(
    manifest: &Manifest,
    shard: u64,
    dir: &str,
    opts: &ShardOpts,
    trial: F,
) -> Result<ShardStatus, String>
where
    F: Fn(usize, &GridPoint, u64, &mut SimRng) -> Json + Sync,
{
    if shard >= manifest.shards {
        return Err(format!(
            "shard {shard} is past the manifest's {} shard(s)",
            manifest.shards
        ));
    }
    let range = manifest.shard_range(shard);
    let (lo, hi) = (range.start as u64, range.end as u64);
    let digest = manifest.digest();
    let path = shard_path(dir, shard);
    let vitals_file = vitals_path(dir, shard);

    let (mut journal, resumed_at) = Journal::open_checkpoint(&path, &digest, shard, lo, hi)?;
    let mut vitals = Journal::open_vitals(&vitals_file);
    let total = hi - lo;
    // The last trial this invocation runs: the range end, or where the
    // `stop_after` budget runs out.
    let end = opts
        .stop_after
        .map_or(total, |budget| total.min(resumed_at.saturating_add(budget)));
    let started = Instant::now();
    let mut done = resumed_at;
    let mut checkpoints: u64 = 0;
    let mut failure = None;

    // One pass over the range: results arrive here in trial order while
    // the workers run ahead, and every `checkpoint_every` trials past
    // the resume point (and at `end`) the lines queued since the last
    // boundary are appended to the journal.
    ParallelSweep::new(opts.threads).stream(
        (lo + resumed_at) as usize..(lo + end) as usize,
        manifest.seed,
        |g, rng| {
            if opts.throttle_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(opts.throttle_ms));
            }
            let (pi, t) = manifest.point_of(g);
            trial(pi, &manifest.points[pi], t, rng)
        },
        |result, _, stats| {
            journal.push(&result);
            done += 1;
            if !(done - resumed_at).is_multiple_of(manifest.checkpoint_every) && done != end {
                return ControlFlow::Continue(());
            }
            if let Err(e) = journal.flush() {
                failure = Some(format!("cannot write checkpoint `{path}`: {e}"));
                return ControlFlow::Break(());
            }
            checkpoints += 1;
            // Vitals ride behind the checkpoint: the durable state is
            // already safe, so a vitals write failure is not fatal —
            // progress reporting must never kill a sweep.
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            let line = Vitals::from_stats(&digest, shard, lo, hi, done, wall_ms, stats);
            vitals.push(&line.to_json());
            if let Err(e) = vitals.flush() {
                eprintln!("warning: cannot write vitals `{vitals_file}`: {e}");
            }
            ControlFlow::Continue(())
        },
    );
    if let Some(msg) = failure {
        return Err(msg);
    }

    Ok(ShardStatus {
        shard,
        lo,
        hi,
        resumed_at,
        completed: done,
        interrupted: end < total,
        checkpoints,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    })
}

/// Runs the whole manifest in-process with no checkpointing: the
/// reference a sharded run must merge byte-identically to. Returns
/// per-trial results in global-trial order.
pub fn run_single<F>(manifest: &Manifest, threads: usize, trial: F) -> Vec<Json>
where
    F: Fn(usize, &GridPoint, u64, &mut SimRng) -> Json + Sync,
{
    ParallelSweep::new(threads).run(0..manifest.total_trials(), manifest.seed, |g, rng| {
        let (pi, t) = manifest.point_of(g);
        trial(pi, &manifest.points[pi], t, rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::manifest::GridPoint;
    use sim_runtime::Rng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn toy_manifest(checkpoint_every: u64) -> Manifest {
        Manifest::new(
            "toy",
            99,
            6,
            3,
            checkpoint_every,
            vec![
                GridPoint::new("a", "t1", 2, 0.0),
                GridPoint::new("b", "t2", 4, 0.1),
            ],
        )
        .expect("valid manifest")
    }

    fn toy_trial(pi: usize, point: &GridPoint, t: u64, rng: &mut SimRng) -> Json {
        // Depends on every input plus the RNG stream, so any indexing
        // or seeding mistake shows up as a value mismatch.
        let draw = (rng.gen_f64() * 1e6).round();
        Json::obj(vec![
            ("pi", Json::UInt(pi as u64)),
            ("size", Json::UInt(point.size)),
            ("t", Json::UInt(t)),
            ("draw", Json::Float(draw)),
        ])
    }

    fn fresh_dir(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("sim_sweep_shard_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn shards_reproduce_the_single_process_run() {
        let m = toy_manifest(2);
        let single = run_single(&m, 1, toy_trial);
        let dir = fresh_dir("repro");
        let mut stitched = Vec::new();
        for shard in [2, 0, 1] {
            run_shard(&m, shard, &dir, &ShardOpts::default(), toy_trial).expect("shard");
        }
        for shard in 0..m.shards {
            let cp = Checkpoint::load(&shard_path(&dir, shard)).expect("checkpoint");
            assert!(cp.is_complete());
            stitched.extend(cp.results);
        }
        assert_eq!(stitched, single);
        let _ = std::fs::remove_dir_all(std::path::Path::new(&dir));
    }

    #[test]
    fn kill_and_resume_is_invisible_in_the_results() {
        let m = toy_manifest(2);
        let dir = fresh_dir("resume");
        // Budget of 3 trials: stops mid-range, between two boundaries.
        let opts = ShardOpts {
            stop_after: Some(3),
            ..ShardOpts::default()
        };
        let st = run_shard(&m, 0, &dir, &opts, toy_trial).expect("first leg");
        assert!(st.interrupted);
        assert_eq!(st.resumed_at, 0);
        assert!(st.completed < st.hi - st.lo);
        // Resume with no budget: picks up exactly where it stopped.
        let st2 = run_shard(&m, 0, &dir, &ShardOpts::default(), toy_trial).expect("second leg");
        assert!(!st2.interrupted);
        assert_eq!(st2.resumed_at, st.completed);
        assert_eq!(st2.completed, st2.hi - st2.lo);
        let cp = Checkpoint::load(&shard_path(&dir, 0)).expect("checkpoint");
        let single = run_single(&m, 1, toy_trial);
        assert_eq!(cp.results, single[..cp.results.len()]);
        let _ = std::fs::remove_dir_all(std::path::Path::new(&dir));
    }

    #[test]
    fn corrupt_checkpoint_restarts_the_shard_cleanly() {
        let m = toy_manifest(2);
        let dir = fresh_dir("corrupt");
        std::fs::create_dir_all(&dir).expect("dir");
        std::fs::write(shard_path(&dir, 1), "{\"schema\":\"vlsi-sync/sweep-che").expect("torn");
        let st = run_shard(&m, 1, &dir, &ShardOpts::default(), toy_trial).expect("recovers");
        assert_eq!(st.resumed_at, 0, "corrupt checkpoint must not resume");
        let cp = Checkpoint::load(&shard_path(&dir, 1)).expect("rewritten checkpoint");
        let single = run_single(&m, 1, toy_trial);
        assert_eq!(cp.results, single[st.lo as usize..st.hi as usize]);
        let _ = std::fs::remove_dir_all(std::path::Path::new(&dir));
    }

    #[test]
    fn foreign_checkpoint_is_an_error_not_a_merge() {
        let m = toy_manifest(2);
        let mut other = toy_manifest(2);
        other.seed += 1; // different results -> different digest
        let dir = fresh_dir("foreign");
        run_shard(&other, 0, &dir, &ShardOpts::default(), toy_trial).expect("other manifest");
        let err = run_shard(&m, 0, &dir, &ShardOpts::default(), toy_trial)
            .expect_err("digest mismatch must be fatal");
        assert!(err.contains("belongs to manifest"), "got: {err}");
        let _ = std::fs::remove_dir_all(std::path::Path::new(&dir));
    }

    #[test]
    fn vitals_track_an_interrupted_shard_and_its_completion() {
        let m = toy_manifest(2);
        let dir = fresh_dir("vitals");
        let opts = ShardOpts {
            stop_after: Some(3),
            ..ShardOpts::default()
        };
        let st = run_shard(&m, 0, &dir, &opts, toy_trial).expect("first leg");
        assert!(st.interrupted);
        let path = vitals_path(&dir, 0);
        let (last, _) = Vitals::load(&path).expect("interrupted shard leaves vitals");
        assert_eq!(last.manifest_digest, m.digest());
        assert_eq!((last.shard, last.lo, last.hi), (st.shard, st.lo, st.hi));
        assert_eq!(last.completed, st.completed);
        assert!(last.completed < last.hi - last.lo, "mid-range snapshot");
        assert!(last.trials_per_sec > 0.0);
        // Finish the shard: the last line records the whole range.
        run_shard(&m, 0, &dir, &ShardOpts::default(), toy_trial).expect("second leg");
        let (last, _) = Vitals::load(&path).expect("finished shard keeps its vitals");
        assert_eq!(last.completed, last.hi - last.lo, "completing boundary appends");
        assert!(
            Checkpoint::load(&shard_path(&dir, 0)).expect("checkpoint").is_complete(),
            "the checkpoint itself survives"
        );
        let _ = std::fs::remove_dir_all(std::path::Path::new(&dir));
    }

    #[test]
    fn vitals_grow_one_line_per_checkpoint_across_resumes() {
        let m = toy_manifest(2);
        let dir = fresh_dir("lines");
        let budget = |n| ShardOpts {
            stop_after: Some(n),
            ..ShardOpts::default()
        };
        let lines = || Vitals::load(&vitals_path(&dir, 0)).expect("vitals").1;
        // Budget 2 of the shard's 4 trials: one boundary, one line.
        let st = run_shard(&m, 0, &dir, &budget(2), toy_trial).expect("first leg");
        assert!(st.interrupted);
        assert_eq!(lines(), st.checkpoints, "one line per checkpoint");
        // A resumed leg appends instead of starting the count over.
        let st2 = run_shard(&m, 0, &dir, &budget(1), toy_trial).expect("second leg");
        assert!(st2.interrupted);
        assert_eq!(lines(), st.checkpoints + st2.checkpoints);
        // The completing boundary appends too.
        let st3 = run_shard(&m, 0, &dir, &ShardOpts::default(), toy_trial).expect("last leg");
        assert_eq!((st3.completed, st3.checkpoints), (st3.hi - st3.lo, 1));
        assert_eq!(lines(), st.checkpoints + st2.checkpoints + st3.checkpoints);
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .expect("shard dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(left, ["shard-0.json", "shard-0.vitals"], "nothing else is left");
        let _ = std::fs::remove_dir_all(std::path::Path::new(&dir));
    }

    /// One shard of 20 trials, checkpointed every 3: boundaries that a
    /// budget can end between.
    fn long_manifest() -> Manifest {
        Manifest::new(
            "toy-long",
            5,
            10,
            1,
            3,
            vec![
                GridPoint::new("a", "t1", 2, 0.0),
                GridPoint::new("b", "t2", 4, 0.1),
            ],
        )
        .expect("valid manifest")
    }

    /// The checkpoint the reference run gives for a `completed`-trial
    /// prefix of `m`'s single shard.
    fn reference_prefix(m: &Manifest, completed: u64) -> Checkpoint {
        Checkpoint {
            manifest_digest: m.digest(),
            shard: 0,
            lo: 0,
            hi: m.total_trials() as u64,
            completed,
            results: run_single(m, 1, toy_trial)[..completed as usize].to_vec(),
        }
    }

    /// Asserts the checkpoint file decodes to the reference run's
    /// `completed`-trial prefix and holds exactly its journal bytes.
    fn assert_checkpoint_is_prefix(m: &Manifest, dir: &str, completed: u64, case: &str) {
        let path = shard_path(dir, 0);
        let want = reference_prefix(m, completed);
        assert_eq!(Checkpoint::load(&path).expect("valid checkpoint"), want, "{case}");
        let bytes = std::fs::read_to_string(&path).expect("checkpoint on disk");
        assert_eq!(bytes, want.to_journal(), "{case}");
    }

    fn budget(threads: usize, stop_after: Option<u64>) -> ShardOpts {
        ShardOpts {
            threads,
            stop_after,
            throttle_ms: 0,
        }
    }

    #[test]
    fn checkpoints_hold_the_reference_bytes_at_every_boundary() {
        let m = long_manifest();
        let (total, every) = (m.total_trials() as u64, m.checkpoint_every);
        for threads in [1, 2, 4] {
            let dir = fresh_dir(&format!("bytes{threads}"));
            let st = run_shard(&m, 0, &dir, &budget(threads, None), toy_trial).expect("shard");
            assert_eq!(st.checkpoints, total.div_ceil(every), "{threads} threads");
            assert_checkpoint_is_prefix(&m, &dir, total, &format!("{threads} threads"));
            // Every budget, on or between boundaries, leaves the prefix
            // it reached; resuming from each finishes the same file.
            for stop in 1..=total {
                let case = format!("{threads} threads, stop after {stop}");
                let _ = std::fs::remove_dir_all(&dir);
                let st = run_shard(&m, 0, &dir, &budget(threads, Some(stop)), toy_trial)
                    .expect("first leg");
                assert_eq!(
                    (st.completed, st.interrupted),
                    (stop, stop < total),
                    "{case}"
                );
                assert_eq!(st.checkpoints, stop.div_ceil(every), "{case}");
                assert_checkpoint_is_prefix(&m, &dir, stop, &case);
                // A second budgeted leg counts its boundaries from the
                // resume point, not from the start of the shard.
                let mid = (stop + every + 1).min(total);
                let st = run_shard(&m, 0, &dir, &budget(threads, Some(every + 1)), toy_trial)
                    .expect("second leg");
                assert_eq!((st.resumed_at, st.completed), (stop, mid), "{case}");
                assert_eq!(st.checkpoints, (mid - stop).div_ceil(every), "{case}");
                assert_checkpoint_is_prefix(&m, &dir, mid, &case);
                let st = run_shard(&m, 0, &dir, &budget(threads, None), toy_trial).expect("resume");
                assert_eq!(st.checkpoints, (total - mid).div_ceil(every), "{case}");
                assert_checkpoint_is_prefix(&m, &dir, total, &case);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_resume_from_every_truncation_finishes_the_reference_bytes() {
        // A kill can stop an append at any byte: each prefix of the
        // finished journal is a state a crash may leave on disk.
        let m = long_manifest();
        let total = m.total_trials() as u64;
        let full = reference_prefix(&m, total).to_journal();
        let header = full.find('\n').expect("header line") + 1;
        let dir = fresh_dir("every_offset");
        std::fs::create_dir_all(&dir).expect("dir");
        let path = shard_path(&dir, 0);
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).expect("truncated journal");
            let intact = full[..cut].matches('\n').count().saturating_sub(1) as u64;
            match Checkpoint::load(&path) {
                Ok(cp) => assert_eq!(cp, reference_prefix(&m, intact), "offset {cut}"),
                Err(err) => assert!(cut < header && err.contains("header"), "offset {cut}: {err}"),
            }
            let st = run_shard(&m, 0, &dir, &budget(2, None), toy_trial).expect("resume");
            let resumed = if cut < header { 0 } else { intact };
            assert_eq!((st.resumed_at, st.completed), (resumed, total), "offset {cut}");
            assert_checkpoint_is_prefix(&m, &dir, total, &format!("offset {cut}"));
            assert_eq!(
                crate::merge::load_shards(&m, &dir).expect("merge"),
                run_single(&m, 1, toy_trial),
                "offset {cut}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_middle_line_restarts_the_shard() {
        let m = long_manifest();
        let total = m.total_trials() as u64;
        let dir = fresh_dir("damaged");
        std::fs::create_dir_all(&dir).expect("dir");
        let mut text = reference_prefix(&m, 6).to_journal();
        // Corrupt the checksum of the third result line.
        let third = text.match_indices('\n').nth(2).expect("three lines").0 + 1;
        text.replace_range(third..third + 1, if &text[third..=third] == "0" { "1" } else { "0" });
        std::fs::write(shard_path(&dir, 0), &text).expect("damaged journal");
        let err = Checkpoint::load(&shard_path(&dir, 0)).expect_err("damage is refused");
        assert!(err.contains("damaged at result line 3"), "{err}");
        let st = run_shard(&m, 0, &dir, &budget(2, None), toy_trial).expect("restart");
        assert_eq!((st.resumed_at, st.completed), (0, total));
        assert_checkpoint_is_prefix(&m, &dir, total, "after restart");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_version_1_checkpoint_restarts_the_shard() {
        // The whole-document layout sweeps wrote before the journal.
        let m = long_manifest();
        let total = m.total_trials() as u64;
        let dir = fresh_dir("v1");
        std::fs::create_dir_all(&dir).expect("dir");
        let cp = reference_prefix(&m, 7);
        let v1 = Json::obj(vec![
            ("schema", Json::Str(crate::CHECKPOINT_SCHEMA.to_owned())),
            ("schema_version", Json::UInt(1)),
            ("manifest_digest", Json::Str(cp.manifest_digest)),
            ("shard", Json::UInt(cp.shard)),
            ("lo", Json::UInt(cp.lo)),
            ("hi", Json::UInt(cp.hi)),
            ("completed", Json::UInt(cp.completed)),
            ("results", Json::Array(cp.results)),
        ]);
        std::fs::write(shard_path(&dir, 0), v1.to_pretty()).expect("v1 checkpoint");
        let err = Checkpoint::load(&shard_path(&dir, 0)).expect_err("version 1 is refused");
        assert!(err.contains("version 1"), "{err}");
        let st = run_shard(&m, 0, &dir, &budget(2, None), toy_trial).expect("restart");
        assert_eq!((st.resumed_at, st.completed), (0, total));
        assert_checkpoint_is_prefix(&m, &dir, total, "restarted from version 1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_shard_past_the_manifest_is_an_error_and_writes_nothing() {
        let m = toy_manifest(2);
        let dir = fresh_dir("past");
        for shard in [m.shards, 99] {
            let err = run_shard(&m, shard, &dir, &ShardOpts::default(), toy_trial)
                .expect_err("no such shard");
            assert!(err.contains("3 shard(s)"), "{err}");
        }
        assert!(!std::path::Path::new(&dir).exists(), "nothing is created");
        assert!(m.shard_range(99).is_empty());
    }

    #[test]
    fn a_panicking_trial_panics_the_shard_and_leaves_a_complete_prefix() {
        let m = long_manifest();
        const FAULT: u64 = 13;
        for threads in [1, 2, 4] {
            let dir = fresh_dir(&format!("panic{threads}"));
            let (m2, dir2) = (m.clone(), dir.clone());
            let (tx, rx) = std::sync::mpsc::channel();
            // On a thread of its own, so a hang fails the test instead
            // of stalling it.
            std::thread::spawn(move || {
                let caught = std::panic::catch_unwind(|| {
                    run_shard(&m2, 0, &dir2, &budget(threads, None), |pi, p, t, rng| {
                        let g = pi as u64 * m2.trials_per_point + t;
                        assert_ne!(g, FAULT, "planted fault");
                        toy_trial(pi, p, t, rng)
                    })
                });
                let _ = tx.send(caught.is_err());
            });
            let panicked = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("run_shard must not hang on a panicking trial");
            assert!(
                panicked,
                "{threads} threads: the trial's panic reaches the caller"
            );
            // Every trial before the fault was delivered, so the last
            // boundary before it is on disk, whole.
            let done = FAULT / m.checkpoint_every * m.checkpoint_every;
            assert_checkpoint_is_prefix(&m, &dir, done, &format!("{threads} threads"));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_checkpoint_write_failure_stops_the_workers_promptly() {
        let m = Manifest::new(
            "toy-wide",
            5,
            200,
            1,
            4,
            vec![GridPoint::new("a", "t1", 2, 0.0)],
        )
        .expect("valid manifest");
        for threads in [1, 2, 4] {
            let dir = fresh_dir(&format!("unwritable{threads}"));
            // A directory where the checkpoint file should go: the
            // create fails at the first boundary.
            std::fs::create_dir_all(shard_path(&dir, 0)).expect("blocking dir");
            // Trials far slower than a failed write: workers could only
            // overrun the bound if the calling thread went unscheduled
            // for two whole trials after the write failed.
            let ran = AtomicUsize::new(0);
            let err = run_shard(&m, 0, &dir, &budget(threads, None), |pi, p, t, rng| {
                ran.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(50));
                toy_trial(pi, p, t, rng)
            })
            .expect_err("an unwritable checkpoint is an error");
            assert!(err.contains("cannot write checkpoint"), "{err}");
            let ran = ran.load(Ordering::Relaxed);
            let bound = m.checkpoint_every as usize + 2 * threads;
            assert!(
                ran <= bound,
                "{threads} threads ran {ran} trials after a failed write (bound {bound})"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let m = toy_manifest(4);
        assert_eq!(run_single(&m, 1, toy_trial), run_single(&m, 5, toy_trial));
    }
}
