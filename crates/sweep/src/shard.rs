//! Shard runners: execute one shard's disjoint trial range with
//! periodic atomic checkpoints and automatic resume.
//!
//! Because every trial's RNG stream is `SimRng::for_trial(seed, g)`
//! with `g` the *global* trial index, the runner produces exactly the
//! results a single-process run would have produced for those indices
//! — regardless of thread count, of which process runs the shard, or
//! of how many kill/resume cycles it took.

use crate::checkpoint::Checkpoint;
use crate::heartbeat::{heartbeat_path, remove_heartbeat, Heartbeat};
use crate::manifest::{GridPoint, Manifest};
use sim_observe::Json;
use sim_runtime::{ParallelSweep, SimRng};
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
    fn default() -> Self {
        ShardOpts {
            threads: 1,
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
/// trials. The trial function receives `(point_index, point,
/// trial_within_point, rng)` and returns the trial's JSON result; it
/// must be deterministic in those inputs.
///
/// A valid checkpoint for the same manifest digest resumes the shard
/// exactly where it stopped; an unusable one (external damage) is
/// discarded and the shard restarts — either way the final results
/// are identical.
///
/// # Errors
///
/// Returns a message when a checkpoint cannot be written, or when an
/// existing checkpoint belongs to a different manifest or shard.
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
    let range = manifest.shard_range(shard);
    let (lo, hi) = (range.start as u64, range.end as u64);
    let digest = manifest.digest();
    let path = shard_path(dir, shard);
    let hb_path = heartbeat_path(dir, shard);

    let mut results: Vec<Json> = Vec::with_capacity(range.len());
    if let Some(cp) = Checkpoint::recover(&path) {
        if cp.manifest_digest != digest {
            return Err(format!(
                "checkpoint `{path}` belongs to manifest {}, not {digest}",
                cp.manifest_digest
            ));
        }
        if cp.shard != shard || cp.lo != lo || cp.hi != hi {
            return Err(format!(
                "checkpoint `{path}` covers shard {} range {}..{}, expected shard {shard} range {lo}..{hi}",
                cp.shard, cp.lo, cp.hi
            ));
        }
        results = cp.results;
    }
    let resumed_at = results.len() as u64;

    let sweep = ParallelSweep::new(opts.threads);
    let started = Instant::now();
    let mut executed: u64 = 0;
    let mut checkpoints: u64 = 0;
    let mut interrupted = false;
    let total = hi - lo;
    // The tick continues from any lingering heartbeat so a resumed
    // shard never rewinds the counter — otherwise an observer probing
    // across a kill/resume boundary could read the same tick twice
    // from a shard that is in fact making progress.
    let mut tick = Heartbeat::load(&hb_path).map_or(0, |hb| hb.tick);

    while (results.len() as u64) < total {
        let remaining = total - results.len() as u64;
        let mut chunk = manifest.checkpoint_every.min(remaining);
        if let Some(budget) = opts.stop_after {
            let left = budget.saturating_sub(executed);
            if left == 0 {
                interrupted = true;
                break;
            }
            chunk = chunk.min(left);
        }
        let chunk_lo = lo as usize + results.len();
        let (out, stats, _) =
            sweep.run_timed(chunk_lo..chunk_lo + chunk as usize, manifest.seed, |g, rng| {
                if opts.throttle_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(opts.throttle_ms));
                }
                let (pi, t) = manifest.point_of(g);
                trial(pi, &manifest.points[pi], t, rng)
            });
        results.extend(out);
        executed += chunk;
        let cp = Checkpoint {
            manifest_digest: digest.clone(),
            shard,
            lo,
            hi,
            completed: results.len() as u64,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            results: std::mem::take(&mut results),
        };
        cp.save_atomic(&path)
            .map_err(|e| format!("cannot write checkpoint `{path}`: {e}"))?;
        results = cp.results;
        checkpoints += 1;
        // Heartbeat rides behind the checkpoint: the durable state is
        // already safe, so a heartbeat write failure is not fatal —
        // progress reporting must never kill a sweep.
        tick += 1;
        let hb = Heartbeat::from_stats(
            &digest,
            shard,
            lo,
            hi,
            results.len() as u64,
            started.elapsed().as_secs_f64() * 1e3,
            &stats,
        )
        .with_tick(tick);
        if let Err(e) = hb.save_atomic(&hb_path) {
            eprintln!("warning: cannot write heartbeat `{hb_path}`: {e}");
        }
    }

    // A finished shard needs no vital signs: the heartbeat disappears
    // so its presence always means "running or interrupted".
    if results.len() as u64 == total {
        remove_heartbeat(&hb_path);
    }

    Ok(ShardStatus {
        shard,
        lo,
        hi,
        resumed_at,
        completed: results.len() as u64,
        interrupted,
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
    use crate::manifest::GridPoint;
    use sim_runtime::Rng;

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
        // Budget of 3 trials: stops mid-range, mid-checkpoint-chunk.
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
    fn heartbeat_lingers_on_interrupt_and_vanishes_on_completion() {
        let m = toy_manifest(2);
        let dir = fresh_dir("heartbeat");
        let opts = ShardOpts {
            stop_after: Some(3),
            ..ShardOpts::default()
        };
        let st = run_shard(&m, 0, &dir, &opts, toy_trial).expect("first leg");
        assert!(st.interrupted);
        let hb_path = heartbeat_path(&dir, 0);
        let hb = Heartbeat::load(&hb_path).expect("interrupted shard leaves a heartbeat");
        assert_eq!(hb.manifest_digest, m.digest());
        assert_eq!((hb.shard, hb.lo, hb.hi), (st.shard, st.lo, st.hi));
        assert_eq!(hb.completed, st.completed);
        assert!(hb.completed < hb.hi - hb.lo, "mid-range snapshot");
        assert!(hb.trials_per_sec > 0.0);
        // Finish the shard: the heartbeat must disappear.
        run_shard(&m, 0, &dir, &ShardOpts::default(), toy_trial).expect("second leg");
        assert!(
            !std::path::Path::new(&hb_path).exists(),
            "completed shard removes its heartbeat"
        );
        assert!(
            Checkpoint::load(&shard_path(&dir, 0)).expect("checkpoint").is_complete(),
            "the checkpoint itself survives"
        );
        let _ = std::fs::remove_dir_all(std::path::Path::new(&dir));
    }

    #[test]
    fn heartbeat_tick_advances_and_survives_resume() {
        let m = toy_manifest(2);
        let dir = fresh_dir("tick");
        let budget = |n| ShardOpts {
            stop_after: Some(n),
            ..ShardOpts::default()
        };
        // First leg: budget 2 of the shard's 4 trials -> one chunk,
        // one heartbeat write.
        let st = run_shard(&m, 0, &dir, &budget(2), toy_trial).expect("first leg");
        assert!(st.interrupted);
        let hb = Heartbeat::load(&heartbeat_path(&dir, 0)).expect("lingers");
        assert_eq!(hb.tick, st.checkpoints, "one tick per heartbeat write");
        // Resume with another budget: the tick continues upward from
        // the lingering heartbeat instead of restarting at 1.
        let st2 = run_shard(&m, 0, &dir, &budget(1), toy_trial).expect("second leg");
        assert!(st2.interrupted);
        let hb2 = Heartbeat::load(&heartbeat_path(&dir, 0)).expect("still lingers");
        assert!(
            hb2.tick > hb.tick,
            "resumed shard must not rewind the tick: {} -> {}",
            hb.tick,
            hb2.tick
        );
        assert_eq!(hb2.tick, hb.tick + st2.checkpoints);
        let _ = std::fs::remove_dir_all(std::path::Path::new(&dir));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let m = toy_manifest(4);
        assert_eq!(run_single(&m, 1, toy_trial), run_single(&m, 5, toy_trial));
    }
}
