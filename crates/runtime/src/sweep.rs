//! [`ParallelSweep`]: the deterministic parallel Monte-Carlo executor.
//!
//! Every heavyweight experiment loop in the workspace — skew
//! fabrications (E1), chip yield (E6), metastability trials (E5) — has
//! the same shape: N independent trials, each needing its own random
//! stream, results combined afterwards. `ParallelSweep` fans those
//! trials across `std::thread::scope` workers. Trial `i` always runs
//! on the RNG [`SimRng::for_trial`]`(seed, i)`, which depends only on
//! the root seed and the trial index, so the result vector is
//! **bit-identical for any worker count** — `SIM_THREADS=1` reproduces
//! `SIM_THREADS=8` exactly. Parallelism changes wall-clock time, never
//! results.
//!
//! Every method rides on one trial loop, [`ParallelSweep::stream`],
//! which hands results back on the calling thread in trial order as
//! soon as each prefix of the range is complete: `run` collects them,
//! `count` folds them, and `sim-sweep` writes its checkpoints behind
//! the workers from the same stream. One worker runs inline on the
//! calling thread.

use crate::rng::SimRng;
use sim_observe::{duration_ns, Json, LogHistogram};
use std::collections::VecDeque;
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Name of the environment variable that picks the default worker
/// count (`0` or unset → all available cores).
pub const THREADS_ENV: &str = "SIM_THREADS";

/// A deterministic fan-out executor for independent trials.
///
/// # Examples
///
/// ```
/// use sim_runtime::{ParallelSweep, Rng};
///
/// let sweep = ParallelSweep::new(4);
/// let sums: Vec<u64> = sweep.run(0..100, 7, |_i, rng| rng.next_u64() % 10);
/// // Identical to the single-threaded run.
/// assert_eq!(sums, ParallelSweep::new(1).run(0..100, 7, |_i, rng| rng.next_u64() % 10));
/// // A shard of global trial indices reproduces that slice of the run.
/// assert_eq!(sweep.run(40..60, 7, |_i, rng| rng.next_u64() % 10), sums[40..60]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelSweep {
    threads: usize,
}

impl ParallelSweep {
    /// Creates a sweep with a fixed worker count (`0` → one worker per
    /// available core).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            available_cores()
        } else {
            threads
        };
        ParallelSweep { threads }
    }

    /// Creates a sweep sized from the `SIM_THREADS` environment
    /// variable, falling back to all available cores when unset,
    /// empty, `0`, or unparseable.
    #[must_use]
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        ParallelSweep::new(threads)
    }

    /// The worker count this sweep will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs the trials with **global** indices in `range` and returns
    /// their results in index order.
    ///
    /// Trial `g` receives `(g, &mut SimRng::for_trial(seed, g))`; the
    /// trial-to-worker assignment is dynamic (an atomic cursor, so
    /// uneven trial costs balance), but since no trial's RNG depends
    /// on that assignment the output is identical for every thread
    /// count. Disjoint ranges covering `0..n` therefore produce,
    /// concatenated in range order, the *byte-identical* result vector
    /// of the single `0..n` run — in any shard completion order, on
    /// any machine. That is what lets `sim-sweep` split a sweep across
    /// processes and merge it deterministically.
    pub fn run<T, F>(&self, range: Range<usize>, seed: u64, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut SimRng) -> T + Sync,
    {
        let mut out = Vec::with_capacity(range.len());
        self.stream(range, seed, f, |result, _, _| {
            out.push(result);
            ControlFlow::Continue(())
        });
        out
    }

    /// [`ParallelSweep::run`], returning with the results the sweep's
    /// wall-clock telemetry: [`SweepStats`] (total time, per-worker
    /// busy time and trial counts, a log-scale histogram of per-trial
    /// latencies) and one [`TrialSpan`] per trial, sorted by trial
    /// index — the raw material of a `sim-trace` wall-time track.
    ///
    /// The results are exactly those of `run`; only the stats and
    /// spans, which are volatile by nature, depend on scheduling and
    /// must stay out of deterministic report sections.
    pub fn run_timed<T, F>(
        &self,
        range: Range<usize>,
        seed: u64,
        f: F,
    ) -> (Vec<T>, SweepStats, Vec<TrialSpan>)
    where
        T: Send,
        F: Fn(usize, &mut SimRng) -> T + Sync,
    {
        let mut out = Vec::with_capacity(range.len());
        let mut spans = Vec::with_capacity(range.len());
        let stats = self.stream(range, seed, f, |result, span, _| {
            out.push(result);
            spans.push(*span);
            ControlFlow::Continue(())
        });
        (out, stats, spans)
    }

    /// The one trial loop behind every other method: runs the trials
    /// with global indices in `range` (seeded as in
    /// [`ParallelSweep::run`]) and hands each result to `sink` on the
    /// calling thread, in global-trial order, as soon as it and every
    /// trial before it have finished. `sink` also gets the trial's
    /// [`TrialSpan`] and the running [`SweepStats`] of the trials
    /// delivered so far; returning [`ControlFlow::Break`] ends the
    /// sweep — workers stop claiming trials, and those still in flight
    /// finish and are dropped. The returned stats cover the delivered
    /// trials, with `wall` the whole sweep's.
    ///
    /// With one worker the trials run inline on the calling thread (no
    /// thread spawned, no channel) and each result reaches `sink` the
    /// moment its trial returns. With more, scoped workers claim
    /// trials from an atomic cursor and send results back to the
    /// calling thread, which puts them in order; a slow `sink` — a
    /// shard writing a checkpoint — never stalls the workers.
    ///
    /// A panicking trial stops the other workers from claiming more;
    /// once they finish, `sink` has seen every trial before the
    /// panicking one and the panic resumes on the calling thread.
    pub fn stream<T, F, S>(&self, range: Range<usize>, seed: u64, f: F, mut sink: S) -> SweepStats
    where
        T: Send,
        F: Fn(usize, &mut SimRng) -> T + Sync,
        S: FnMut(T, &TrialSpan, &SweepStats) -> ControlFlow<()>,
    {
        let workers = self.threads.min(range.len().max(1));
        let cursor = Cursor {
            range,
            seed,
            next: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            start: Instant::now(),
        };
        let mut stats = SweepStats::empty(workers);
        let mut deliver = |result: T, span: TrialSpan| {
            stats.record(&span);
            sink(result, &span, &stats)
        };
        if workers == 1 {
            cursor.work(0, &f, &mut deliver);
        } else {
            std::thread::scope(|scope| {
                let (tx, rx) = mpsc::channel::<(T, TrialSpan)>();
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let (tx, cursor, f) = (tx.clone(), &cursor, &f);
                        scope.spawn(move || {
                            let _halt = HaltOnPanic(&cursor.stop);
                            cursor.work(w, f, |result, span| match tx.send((result, span)) {
                                Ok(()) => ControlFlow::Continue(()),
                                Err(_) => ControlFlow::Break(()),
                            });
                        })
                    })
                    .collect();
                drop(tx);
                // Results arrive in completion order; `ahead[k]` holds
                // trial `due + k` until every trial before it is in.
                let mut ahead: VecDeque<Option<(T, TrialSpan)>> = VecDeque::new();
                let mut due = cursor.range.start;
                'recv: for (result, span) in &rx {
                    let k = span.trial - due;
                    if ahead.len() <= k {
                        ahead.resize_with(k + 1, || None);
                    }
                    ahead[k] = Some((result, span));
                    while let Some((result, span)) = ahead.front_mut().and_then(Option::take) {
                        ahead.pop_front();
                        due += 1;
                        if deliver(result, span).is_break() {
                            cursor.stop.store(true, Ordering::Relaxed);
                            break 'recv;
                        }
                    }
                }
                // Dropping the receiver turns any in-flight send into
                // an error, so no worker outlives a stopped sweep by
                // more than the trial it is running.
                drop(rx);
                for handle in handles {
                    if let Err(payload) = handle.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
            });
        }
        stats.wall = cursor.start.elapsed();
        stats
    }

    /// Runs trials `0..trials` and counts those for which `pred`
    /// returns `true` — the common yield/failure-rate reduction.
    pub fn count<F>(&self, trials: usize, seed: u64, pred: F) -> usize
    where
        F: Fn(usize, &mut SimRng) -> bool + Sync,
    {
        let mut hits = 0;
        self.stream(0..trials, seed, pred, |hit, _, _| {
            hits += usize::from(hit);
            ControlFlow::Continue(())
        });
        hits
    }
}

/// The claim cursor and stop flag one [`ParallelSweep::stream`] call
/// shares between its workers.
struct Cursor {
    range: Range<usize>,
    seed: u64,
    next: AtomicUsize,
    stop: AtomicBool,
    start: Instant,
}

impl Cursor {
    /// The trial loop every worker runs: claim the next trial, run it,
    /// hand it to `emit` — until the range is exhausted, `emit` breaks,
    /// or another party sets `stop`.
    fn work<T, F, E>(&self, worker: usize, f: &F, mut emit: E)
    where
        F: Fn(usize, &mut SimRng) -> T,
        E: FnMut(T, TrialSpan) -> ControlFlow<()>,
    {
        while !self.stop.load(Ordering::Relaxed) {
            let g = self.range.start + self.next.fetch_add(1, Ordering::Relaxed);
            if g >= self.range.end {
                break;
            }
            let t0 = Instant::now();
            let result = f(g, &mut SimRng::for_trial(self.seed, g as u64));
            let span = TrialSpan {
                trial: g,
                worker,
                start_ns: duration_ns(t0.duration_since(self.start)),
                dur_ns: duration_ns(t0.elapsed()),
            };
            if emit(result, span).is_break() {
                self.stop.store(true, Ordering::Relaxed);
                break;
            }
        }
    }
}

/// Sets a sweep's stop flag when its worker unwinds, so one panicking
/// trial halts the sweep instead of leaving the others to finish the
/// range first.
struct HaltOnPanic<'a>(&'a AtomicBool);

impl Drop for HaltOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

impl Default for ParallelSweep {
    /// [`ParallelSweep::from_env`].
    fn default() -> Self {
        ParallelSweep::from_env()
    }
}

/// Extracts the human-readable message from a caught panic payload
/// (`&str` and `String` payloads cover every `panic!`/`assert!` in
/// practice; anything else reports its opacity).
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Worker count of the host (`available_parallelism`, floor 1).
#[must_use]
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// One trial's wall-clock execution window within a sweep, from
/// [`ParallelSweep::run_timed`]. All times are nanoseconds
/// relative to the start of the sweep. Volatile — scheduling decides
/// which worker runs which trial and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialSpan {
    /// Global trial index.
    pub trial: usize,
    /// Worker that executed the trial.
    pub worker: usize,
    /// Start offset from the beginning of the sweep, nanoseconds.
    pub start_ns: u64,
    /// Trial duration, nanoseconds.
    pub dur_ns: u64,
}

/// Wall-clock telemetry of one [`ParallelSweep::run_timed`] call.
///
/// Everything here is **volatile** — it varies run to run and machine
/// to machine — so it belongs in the `run` section of a JSON report,
/// never in the deterministic core.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStats {
    /// Trials delivered (all of the range unless the sink stopped the
    /// sweep early).
    pub trials: usize,
    /// Workers the sweep actually used (≤ the configured thread
    /// count; a sweep never spawns more workers than trials).
    pub workers: usize,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Trials completed by each worker.
    pub worker_trials: Vec<usize>,
    /// Busy time (sum of trial durations) of each worker.
    pub worker_busy: Vec<Duration>,
    /// Log-scale histogram of per-trial latencies, in nanoseconds.
    pub trial_ns: LogHistogram,
}

impl SweepStats {
    /// Stats of a sweep that has delivered nothing yet.
    fn empty(workers: usize) -> Self {
        SweepStats {
            trials: 0,
            workers,
            wall: Duration::ZERO,
            worker_trials: vec![0; workers],
            worker_busy: vec![Duration::ZERO; workers],
            trial_ns: LogHistogram::new(),
        }
    }

    /// Counts one delivered trial; `wall` advances to the latest end of
    /// a delivered trial, so running stats never read another clock.
    fn record(&mut self, span: &TrialSpan) {
        self.trials += 1;
        self.worker_trials[span.worker] += 1;
        self.worker_busy[span.worker] += Duration::from_nanos(span.dur_ns);
        self.trial_ns.record(span.dur_ns);
        self.wall = self.wall.max(Duration::from_nanos(
            span.start_ns.saturating_add(span.dur_ns),
        ));
    }

    /// Completed trials per wall-clock second (0 for an instant sweep).
    #[must_use]
    pub fn items_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.trials as f64 / secs
        } else {
            0.0
        }
    }

    /// Mean worker utilization in `[0, 1]`: total busy time over
    /// `workers × wall`. Low values mean workers idled at the tail of
    /// an unbalanced sweep.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let denom = self.workers as f64 * self.wall.as_secs_f64();
        if denom > 0.0 {
            let busy: f64 = self.worker_busy.iter().map(Duration::as_secs_f64).sum();
            (busy / denom).min(1.0)
        } else {
            0.0
        }
    }

    /// JSON summary for the `run` section of an experiment report.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("trials", Json::UInt(self.trials as u64)),
            ("workers", Json::UInt(self.workers as u64)),
            ("wall_ms", Json::Float(self.wall.as_secs_f64() * 1e3)),
            ("items_per_sec", Json::Float(self.items_per_sec())),
            ("utilization", Json::Float(self.utilization())),
            ("trial_ns", self.trial_ns.to_json()),
            (
                "worker_trials",
                Json::Array(
                    self.worker_trials
                        .iter()
                        .map(|&t| Json::UInt(t as u64))
                        .collect(),
                ),
            ),
            (
                "worker_busy_ms",
                Json::Array(
                    self.worker_busy
                        .iter()
                        .map(|d| Json::Float(d.as_secs_f64() * 1e3))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn trial_sum(_i: usize, rng: &mut SimRng) -> u64 {
        (0..32).map(|_| rng.next_u64() % 1000).sum()
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let baseline = ParallelSweep::new(1).run(0..200, 99, trial_sum);
        for threads in [2, 3, 4, 8] {
            let par = ParallelSweep::new(threads).run(0..200, 99, trial_sum);
            assert_eq!(baseline, par, "thread count {threads} diverged");
        }
    }

    #[test]
    fn range_shards_concatenate_to_the_full_run() {
        let full = ParallelSweep::new(1).run(0..100, 17, trial_sum);
        // Uneven contiguous shards, executed out of order and with
        // different thread counts, still reassemble the exact vector.
        let cuts = [0usize, 13, 13, 40, 77, 100];
        let mut shards: Vec<(usize, Vec<u64>)> = Vec::new();
        for (order, w) in [(3usize, 4usize), (0, 1), (2, 2), (4, 3), (1, 5)] {
            let (lo, hi) = (cuts[order], cuts[order + 1]);
            shards.push((lo, ParallelSweep::new(w).run(lo..hi, 17, trial_sum)));
        }
        shards.sort_by_key(|(lo, _)| *lo);
        let stitched: Vec<u64> = shards.into_iter().flat_map(|(_, v)| v).collect();
        assert_eq!(stitched, full, "shard concatenation diverged");
    }

    #[test]
    fn run_passes_global_indices() {
        let out = ParallelSweep::new(3).run(10..20, 0, |g, _rng| g);
        assert_eq!(out, (10..20).collect::<Vec<_>>());
        let empty: Vec<usize> = ParallelSweep::new(3).run(5..5, 0, |g, _| g);
        assert!(empty.is_empty());
    }

    #[test]
    fn results_are_in_trial_order() {
        let out = ParallelSweep::new(4).run(0..64, 0, |i, _rng| i);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn zero_trials_is_empty() {
        let out: Vec<u64> = ParallelSweep::new(4).run(0..0, 1, trial_sum);
        assert!(out.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = ParallelSweep::new(2).run(0..32, 1, trial_sum);
        let b = ParallelSweep::new(2).run(0..32, 2, trial_sum);
        assert_ne!(a, b);
    }

    #[test]
    fn count_matches_run() {
        let sweep = ParallelSweep::new(3);
        let even = sweep.count(500, 5, |_i, rng| rng.next_u64() % 2 == 0);
        let ratio = even as f64 / 500.0;
        assert!((ratio - 0.5).abs() < 0.1, "ratio {ratio}");
        assert_eq!(
            even,
            ParallelSweep::new(1).count(500, 5, |_i, rng| rng.next_u64() % 2 == 0)
        );
    }

    #[test]
    fn zero_thread_request_resolves_to_cores() {
        assert!(ParallelSweep::new(0).threads() >= 1);
        assert!(ParallelSweep::from_env().threads() >= 1);
    }

    #[test]
    fn run_timed_matches_run_and_accounts_for_every_trial() {
        for (range, threads) in [(0..120, 1), (0..120, 3), (30..90, 4), (5..5, 2)] {
            let case = format!("{range:?} on {threads} threads");
            let sweep = ParallelSweep::new(threads);
            let plain = sweep.run(range.clone(), 7, trial_sum);
            let (timed, stats, spans) = sweep.run_timed(range.clone(), 7, trial_sum);
            assert_eq!(plain, timed, "{case}");
            assert_eq!(stats.trials, range.len(), "stats count the range: {case}");
            let claimed: usize = stats.worker_trials.iter().sum();
            assert_eq!(claimed, range.len(), "{case}");
            assert_eq!(stats.workers, threads.min(range.len().max(1)), "{case}");
            assert_eq!(stats.worker_trials.len(), stats.workers, "{case}");
            assert_eq!(stats.worker_busy.len(), stats.workers, "{case}");
            assert_eq!(stats.trial_ns.count(), range.len() as u64, "{case}");
            assert_eq!(spans.len(), range.len(), "one span per trial: {case}");
            for (g, span) in range.clone().zip(&spans) {
                assert_eq!(span.trial, g, "spans sorted by global trial index: {case}");
                assert!(span.worker < stats.workers, "{case}");
            }
        }
    }

    #[test]
    fn run_timed_zero_trials() {
        let (out, stats, spans): (Vec<u64>, _, _) =
            ParallelSweep::new(4).run_timed(0..0, 1, trial_sum);
        assert!(out.is_empty() && spans.is_empty());
        assert_eq!(stats.trials, 0);
        assert_eq!(stats.workers, 1, "no work collapses to one worker");
        assert_eq!(stats.items_per_sec(), 0.0);
    }

    #[test]
    fn sweep_stats_json_shape() {
        let (_, stats, _) = ParallelSweep::new(2).run_timed(0..16, 3, trial_sum);
        let j = stats.to_json();
        assert_eq!(j.get("trials"), Some(&Json::UInt(16)));
        assert_eq!(j.get("workers"), Some(&Json::UInt(2)));
        assert!(j.get("wall_ms").and_then(Json::as_f64).is_some());
        assert!(j.get("trial_ns").and_then(|h| h.get("p99")).is_some());
        let util = stats.utilization();
        assert!((0.0..=1.0).contains(&util), "utilization {util}");
    }

    #[test]
    fn stream_delivers_in_trial_order_until_the_sink_breaks() {
        for threads in [1, 2, 4] {
            let mut seen = Vec::new();
            let stats = ParallelSweep::new(threads).stream(
                5..105,
                3,
                |g, rng| (g, trial_sum(g, rng)),
                |(g, sum), span, running| {
                    assert_eq!(span.trial, g);
                    assert_eq!(
                        running.trials,
                        seen.len() + 1,
                        "running stats count this trial"
                    );
                    seen.push((g, sum));
                    if seen.len() == 10 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            let want: Vec<_> = ParallelSweep::new(1).run(5..15, 3, |g, rng| (g, trial_sum(g, rng)));
            assert_eq!(seen, want, "{threads} threads");
            assert_eq!(stats.trials, 10, "{threads} threads");
        }
    }

    #[test]
    fn one_worker_runs_inline_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let here = |_: usize, _: &mut SimRng| std::thread::current().id() == caller;
        assert!(ParallelSweep::new(1).run(0..8, 1, here).iter().all(|&h| h));
        // Several workers run on spawned threads, yet the sink still
        // runs on the caller.
        ParallelSweep::new(2).stream(0..8, 1, here, |ran_here, _, _| {
            assert!(!ran_here, "workers are spawned threads");
            assert_eq!(std::thread::current().id(), caller);
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn a_panicking_trial_resumes_on_the_caller_after_its_prefix() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcomes: Vec<_> = [1, 2, 4]
            .into_iter()
            .map(|threads| {
                let mut seen = Vec::new();
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ParallelSweep::new(threads).stream(
                        0..200,
                        9,
                        |g, _| {
                            assert_ne!(g, 13, "trial {g} hit the planted fault");
                            g
                        },
                        |g, _, _| {
                            seen.push(g);
                            ControlFlow::Continue(())
                        },
                    )
                }));
                (threads, caught.map_err(|p| panic_message(p.as_ref())), seen)
            })
            .collect();
        std::panic::set_hook(prev);
        for (threads, caught, seen) in outcomes {
            let msg = caught.expect_err("the trial's panic reaches the caller");
            assert!(msg.contains("planted fault"), "{threads} threads: {msg}");
            assert_eq!(seen, (0..13).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn panic_message_extracts_both_payload_shapes() {
        let s: Box<dyn std::any::Any + Send> = Box::new("literal");
        assert_eq!(panic_message(s.as_ref()), "literal");
        let owned: Box<dyn std::any::Any + Send> = Box::new(String::from("formatted 7"));
        assert_eq!(panic_message(owned.as_ref()), "formatted 7");
        let odd: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(odd.as_ref()), "non-string panic payload");
    }

    #[test]
    fn uneven_trial_costs_still_deterministic() {
        // Trials with wildly different workloads exercise the dynamic
        // scheduler's work stealing.
        let cost = |i: usize, rng: &mut SimRng| -> u64 {
            let reps = if i.is_multiple_of(7) { 2_000 } else { 10 };
            (0..reps).map(|_| rng.next_u64() & 0xFF).sum()
        };
        assert_eq!(
            ParallelSweep::new(1).run(0..101, 13, cost),
            ParallelSweep::new(5).run(0..101, 13, cost)
        );
    }
}
