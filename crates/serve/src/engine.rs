//! The execution engine: request → cache → single-flight → pool.
//!
//! [`Engine::run`] is the whole serving policy in one place:
//!
//! 1. **Cache lookup.** The canonical request string indexes the
//!    [`crate::cache::Cache`]; a hit returns the stored body with no
//!    work scheduled.
//! 2. **Single-flight coalescing.** On a miss, concurrent requests for
//!    the same canonical form share one computation: the first caller
//!    submits a job and everyone (submitter included) waits on the
//!    same in-flight cell. A thundering herd of identical cold
//!    requests costs one experiment run, not N.
//! 3. **Bounded execution.** The job goes to the [`crate::pool::Pool`]
//!    via `try_submit`; a full pool surfaces as [`ServeError::Busy`]
//!    and the in-flight cell is retracted before anyone can join it.
//! 4. **Waiter-side timeout.** Waiters give up after the configured
//!    deadline ([`ServeError::Timeout`]) but the job itself keeps
//!    running and still populates the cache — a slow experiment is
//!    paid for once, then served from cache forever.
//!
//! Every `run` and `frontier` call, served or refused, is timed into
//! the engine's [`EngineTelemetry`], which is always on: the `metrics`
//! op reports it.
//!
//! Lock discipline: the cache mutex and the in-flight mutex are never
//! held at the same time. The price is a benign race — a job that
//! finishes between a cache miss and the in-flight check may be
//! recomputed once — which is harmless because bodies are
//! deterministic for a given canonical request.
//!
//! The served body is `json_core(...).to_pretty()`: the deterministic
//! core of the CLI's `--json` output, byte-identical across thread
//! counts and wall clocks, which is what makes caching (and the
//! serve-determinism test suite) sound.

use crate::cache::{Cache, CacheStats};
use crate::pool::{Pool, PoolStats, SubmitError};
use crate::request::{FrontierRequest, Request};
use crate::telemetry::{EngineTelemetry, GaugeSnapshot};
use sim_observe::timeseries::SloPolicy;
use sim_observe::duration_ns;
use sim_runtime::{check_trials, json_core, panic_message, run_experiment, Registry};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Pool and queue are full; the client should back off and retry.
    Busy,
    /// The engine is draining and accepts no new work.
    ShuttingDown,
    /// The waiter-side deadline passed. The job keeps running and its
    /// result will be cached; a retry will usually hit.
    Timeout,
    /// The request is well-formed JSON but semantically unservable
    /// (unknown experiment, too few trials, …).
    BadRequest(String),
    /// The experiment ran but failed (panicked).
    Failed(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Busy => write!(f, "server busy: worker pool and queue are full"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Timeout => write!(f, "timed out waiting for the experiment"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Failed(msg) => write!(f, "experiment failed: {msg}"),
        }
    }
}

/// The protocol status token for an error, used in the response
/// header's `"status"` field and tallied by the load generator.
impl ServeError {
    /// Stable machine-readable status token (`busy`, `timeout`, …).
    #[must_use]
    pub fn status(&self) -> &'static str {
        match self {
            ServeError::Busy => "busy",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::Timeout => "timeout",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::Failed(_) => "failed",
        }
    }
}

/// A successfully served body plus how it was obtained.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The report body: `json_core` pretty-printed, newline-free count
    /// of bytes exactly as sent on the wire.
    pub body: Arc<str>,
    /// Content address (FNV-1a hex of the canonical request).
    pub key: String,
    /// Served straight from the cache.
    pub cached: bool,
    /// Waited on another request's computation (single-flight).
    pub coalesced: bool,
}

/// One in-flight computation; waiters block on `cv` until `done` is
/// populated by the worker.
struct InFlight {
    done: Mutex<Option<Result<Arc<str>, String>>>,
    cv: Condvar,
}

/// Engine configuration knobs (all have serving-sensible defaults).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads executing experiments.
    pub workers: usize,
    /// Bounded submission queue depth beyond the busy workers.
    pub queue_cap: usize,
    /// Cache bound in bytes (canonical key + body per entry).
    pub cache_bytes: usize,
    /// `--threads` handed to each experiment run (volatile; does not
    /// affect report bytes).
    pub job_threads: usize,
    /// Waiter-side deadline per request; `None` waits indefinitely.
    pub job_timeout: Option<Duration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            queue_cap: 16,
            cache_bytes: 16 * 1024 * 1024,
            job_threads: 1,
            job_timeout: Some(Duration::from_secs(60)),
        }
    }
}

/// The serving engine. Cheap to share behind an `Arc`; all interior
/// state is synchronized.
pub struct Engine {
    registry: Arc<Registry>,
    pool: Mutex<Pool>,
    cache: Mutex<Cache>,
    inflight: Mutex<HashMap<String, Arc<InFlight>>>,
    coalesced: AtomicU64,
    job_threads: usize,
    job_timeout: Option<Duration>,
    /// Live telemetry (`metrics` op, SLO accounting against
    /// [`SloPolicy::default`]).
    telemetry: Mutex<EngineTelemetry>,
    /// Telemetry tick origin (ticks are milliseconds since this).
    started: Instant,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("experiments", &self.registry.names())
            .field("job_threads", &self.job_threads)
            .field("job_timeout", &self.job_timeout)
            .finish()
    }
}

impl Engine {
    /// Builds an engine serving `registry` under `cfg`.
    #[must_use]
    pub fn new(registry: Arc<Registry>, cfg: &EngineConfig) -> Self {
        Engine {
            registry,
            pool: Mutex::new(Pool::new(cfg.workers, cfg.queue_cap)),
            cache: Mutex::new(Cache::new(cfg.cache_bytes)),
            inflight: Mutex::new(HashMap::new()),
            coalesced: AtomicU64::new(0),
            job_threads: cfg.job_threads.max(1),
            job_timeout: cfg.job_timeout,
            telemetry: Mutex::new(EngineTelemetry::new(SloPolicy::default())),
            started: Instant::now(),
        }
    }

    /// Serves one request: cache hit, coalesced wait, or fresh run.
    ///
    /// # Errors
    ///
    /// See [`ServeError`]; `Busy` and `Timeout` are retryable.
    pub fn run(self: &Arc<Self>, req: &Request) -> Result<Outcome, ServeError> {
        let t0 = Instant::now();
        let result = self.run_inner(req);
        self.telemetry_record("run", t0, result.is_ok());
        result
    }

    fn run_inner(self: &Arc<Self>, req: &Request) -> Result<Outcome, ServeError> {
        let Some(exp) = self.registry.get(&req.experiment) else {
            return Err(ServeError::BadRequest(format!(
                "unknown experiment `{}` (known: {})",
                req.experiment,
                self.registry.names().join(", ")
            )));
        };
        let cfg = req.exp_config(self.job_threads);
        check_trials(exp, &cfg).map_err(ServeError::BadRequest)?;
        let registry = Arc::clone(&self.registry);
        let name = req.experiment.clone();
        self.serve_body(&req.canonical(), req.key(), &req.experiment, move || {
            let exp = registry.get(&name).expect("validated before submission");
            let report = run_experiment(exp, &cfg);
            Ok(Arc::from(json_core(exp, &cfg, &report).to_pretty()))
        })
    }

    /// Serves a design-space frontier request: a fast-grid sweep over
    /// the (scheme × topology × size × fault-rate) grid followed by
    /// Pareto pruning, through the same cache / single-flight / pool
    /// path as experiment runs — the sweep is deterministic for a
    /// given canonical request, so the first caller pays for it and
    /// everyone after reads cached bytes.
    ///
    /// # Errors
    ///
    /// See [`ServeError`]; `Busy` and `Timeout` are retryable.
    pub fn frontier(self: &Arc<Self>, req: &FrontierRequest) -> Result<Outcome, ServeError> {
        let t0 = Instant::now();
        let result = self.frontier_inner(req);
        self.telemetry_record("frontier", t0, result.is_ok());
        result
    }

    fn frontier_inner(self: &Arc<Self>, req: &FrontierRequest) -> Result<Outcome, ServeError> {
        let job = req.clone();
        let threads = self.job_threads;
        self.serve_body(&req.canonical(), req.key(), "frontier", move || {
            let trials = job.trials.unwrap_or(FrontierRequest::DEFAULT_TRIALS);
            // One shard, checkpointing irrelevant in-process: neither
            // field participates in the report's manifest digest.
            let m = bench::grid::default_manifest(job.seed, trials, 1, trials.max(1), job.fast)?;
            let results = bench::grid::run_sweep_single(&m, threads)?;
            let report = bench::grid::sweep_report(&m, &results);
            let frontier = bench::grid::sweep_frontier(&report)?;
            Ok(Arc::from(frontier.to_pretty()))
        })
    }

    /// The shared serving policy: cache lookup, single-flight
    /// join-or-submit, bounded pool execution, waiter-side deadline.
    /// `compute` produces the body on a pool thread exactly once per
    /// cold canonical form; `label` names the job in panic messages.
    fn serve_body(
        self: &Arc<Self>,
        canonical: &str,
        key: String,
        label: &str,
        compute: impl FnOnce() -> Result<Arc<str>, String> + Send + 'static,
    ) -> Result<Outcome, ServeError> {
        // 1. Cache. (Cache lock only.)
        if let Some(body) = self.cache.lock().expect("cache mutex").get(canonical) {
            return Ok(Outcome { body, key, cached: true, coalesced: false });
        }

        // 2./3. Single-flight join-or-submit. (In-flight lock only;
        // try_submit is non-blocking so holding the lock across it
        // keeps the join/retract window race-free.)
        let (flight, coalesced) = {
            let mut inflight = self.inflight.lock().expect("inflight mutex");
            if let Some(existing) = inflight.get(canonical) {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                (Arc::clone(existing), true)
            } else {
                let flight = Arc::new(InFlight {
                    done: Mutex::new(None),
                    cv: Condvar::new(),
                });
                inflight.insert(canonical.to_owned(), Arc::clone(&flight));
                let engine = Arc::clone(self);
                let job_canonical = canonical.to_owned();
                let job_label = label.to_owned();
                let submitted = self
                    .pool
                    .lock()
                    .expect("pool mutex")
                    .try_submit(Box::new(move || {
                        engine.execute(&job_label, &job_canonical, compute);
                    }));
                if let Err(e) = submitted {
                    inflight.remove(canonical);
                    return Err(match e {
                        SubmitError::Busy => ServeError::Busy,
                        SubmitError::ShuttingDown => ServeError::ShuttingDown,
                    });
                }
                (flight, false)
            }
        };

        // 4. Wait (with the optional deadline).
        let result = self.wait(&flight)?;
        match result {
            Ok(body) => Ok(Outcome { body, key, cached: false, coalesced }),
            Err(msg) => Err(ServeError::Failed(msg)),
        }
    }

    /// Blocks until the flight resolves or the deadline passes.
    #[allow(clippy::type_complexity)]
    fn wait(&self, flight: &InFlight) -> Result<Result<Arc<str>, String>, ServeError> {
        let mut done = flight.done.lock().expect("flight mutex");
        let deadline = self.job_timeout.map(|t| std::time::Instant::now() + t);
        loop {
            if let Some(result) = done.as_ref() {
                return Ok(result.clone());
            }
            match deadline {
                None => done = flight.cv.wait(done).expect("flight mutex"),
                Some(deadline) => {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        return Err(ServeError::Timeout);
                    }
                    let (guard, _) = flight
                        .cv
                        .wait_timeout(done, deadline - now)
                        .expect("flight mutex");
                    done = guard;
                }
            }
        }
    }

    /// Worker-side: run the job, cache the body, resolve the flight.
    /// Runs on a pool thread; panics are caught and surfaced as
    /// [`ServeError::Failed`].
    fn execute(
        self: &Arc<Self>,
        label: &str,
        canonical: &str,
        compute: impl FnOnce() -> Result<Arc<str>, String>,
    ) {
        let result = catch_unwind(AssertUnwindSafe(compute)).unwrap_or_else(|panic| {
            Err(format!("panic in `{label}`: {}", panic_message(&*panic)))
        });

        if let Ok(body) = &result {
            // Cache lock only.
            self.cache
                .lock()
                .expect("cache mutex")
                .insert(canonical, Arc::clone(body));
        }
        // In-flight lock only: resolve and retract.
        let flight = self
            .inflight
            .lock()
            .expect("inflight mutex")
            .remove(canonical);
        if let Some(flight) = flight {
            *flight.done.lock().expect("flight mutex") = Some(result);
            flight.cv.notify_all();
        }
    }

    /// Records latency/outcome for `op`, started at `t0`, and samples
    /// the queue/in-flight/cache gauges. Gauges are read *before*
    /// taking the telemetry lock — it is never held together with the
    /// pool, cache, or in-flight locks.
    fn telemetry_record(&self, op: &str, t0: Instant, ok: bool) {
        let latency_ns = duration_ns(t0.elapsed());
        let tick_ms = duration_ns(self.started.elapsed()) / 1_000_000;
        let pool = self.pool_stats();
        let gauges = GaugeSnapshot {
            queue_depth: pool.submitted.saturating_sub(pool.completed),
            in_flight: self.inflight.lock().expect("inflight mutex").len() as u64,
            cache_hit_rate: self.cache_stats().hit_rate(),
        };
        self.telemetry
            .lock()
            .expect("telemetry mutex")
            .record(op, tick_ms, latency_ns, ok, gauges);
    }

    /// The `metrics` op's JSON body ([`crate::telemetry`] document).
    #[must_use]
    pub fn metrics_json(&self) -> sim_observe::Json {
        self.telemetry.lock().expect("telemetry mutex").to_json()
    }

    /// Cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("cache mutex").stats()
    }

    /// Pool counters.
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.lock().expect("pool mutex").stats()
    }

    /// Requests that attached to another request's computation.
    #[must_use]
    pub fn coalesced_count(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// The `stats` op payload: cache snapshot, pool counters, and the
    /// coalesced count — a fixed deterministic shape with volatile
    /// values. SLO state is the `metrics` op's.
    #[must_use]
    pub fn stats_json(&self) -> sim_observe::Json {
        use sim_observe::Json;
        let pool = self.pool_stats();
        Json::obj(vec![
            ("cache", self.cache.lock().expect("cache mutex").stats_json()),
            (
                "pool",
                Json::obj(vec![
                    ("submitted", Json::UInt(pool.submitted)),
                    ("rejected_busy", Json::UInt(pool.rejected_busy)),
                    ("completed", Json::UInt(pool.completed)),
                    ("panicked", Json::UInt(pool.panicked)),
                ]),
            ),
            ("coalesced", Json::UInt(self.coalesced_count())),
        ])
    }

    /// Drains the pool: queued jobs finish, workers join, new
    /// submissions get `ShuttingDown`. Idempotent.
    pub fn shutdown(&self) {
        self.pool.lock().expect("pool mutex").shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_observe::parse;

    fn engine(cfg: &EngineConfig) -> Arc<Engine> {
        Arc::new(Engine::new(Arc::new(bench::registry()), cfg))
    }

    fn fast_request(name: &str, seed: u64) -> Request {
        let mut req = Request::new(name);
        req.seed = seed;
        req.fast = true;
        req.trials = Some(2);
        req
    }

    #[test]
    fn miss_then_hit_with_identical_bytes() {
        let eng = engine(&EngineConfig { workers: 1, ..EngineConfig::default() });
        let req = fast_request("e2", 42);
        let first = eng.run(&req).expect("first run succeeds");
        assert!(!first.cached);
        let second = eng.run(&req).expect("second run succeeds");
        assert!(second.cached, "repeat request must be a cache hit");
        assert_eq!(first.body, second.body, "hit body must be byte-identical");
        assert_eq!(first.key, second.key);
        assert_eq!(eng.cache_stats().hits, 1);
        // The body is valid JSON with the report schema marker.
        let doc = parse(&first.body).expect("body is valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some("vlsi-sync/experiment-report")
        );
    }

    #[test]
    fn frontier_miss_then_hit_serves_a_frontier_report() {
        use crate::request::FrontierRequest;
        let eng = engine(&EngineConfig { workers: 1, ..EngineConfig::default() });
        let req = FrontierRequest {
            seed: 7,
            trials: Some(2),
            fast: true,
        };
        let first = eng.frontier(&req).expect("first frontier run");
        assert!(!first.cached);
        let second = eng.frontier(&req).expect("second frontier run");
        assert!(second.cached, "repeat frontier request must hit the cache");
        assert_eq!(first.body, second.body);
        let doc = parse(&first.body).expect("frontier body is valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some("vlsi-sync/frontier-report")
        );
        assert!(
            doc.get("frontier_size").is_some(),
            "frontier body carries the pruned set"
        );
        // Experiment runs and frontier sweeps share one cache but can
        // never collide: the canonical forms differ structurally.
        let run = fast_request("e2", 7);
        assert_ne!(run.canonical(), req.canonical());
    }

    #[test]
    fn unknown_experiments_and_too_few_trials_are_bad_requests() {
        let eng = engine(&EngineConfig::default());
        let err = eng.run(&Request::new("e99")).expect_err("unknown name");
        assert!(matches!(err, ServeError::BadRequest(_)));
        assert!(err.to_string().contains("e99"), "{err}");
        assert_eq!(err.status(), "bad_request");

        // Fewer trials than e5's capture check needs: refused up front,
        // naming the minimum, instead of a panicked job.
        let min = eng.registry.get("e5").expect("e5 is registered").min_trials();
        let err = eng.run(&fast_request("e5", 1)).expect_err("two trials are too few");
        assert_eq!(err.status(), "bad_request");
        assert!(err.to_string().contains(&format!("at least {min} trials")), "{err}");
    }

    #[test]
    fn concurrent_identical_requests_coalesce_to_one_run() {
        let eng = engine(&EngineConfig { workers: 2, ..EngineConfig::default() });
        let req = fast_request("e2", 7);
        let threads: Vec<_> = (0..6)
            .map(|_| {
                let eng = Arc::clone(&eng);
                let req = req.clone();
                std::thread::spawn(move || eng.run(&req).expect("served"))
            })
            .collect();
        let outcomes: Vec<Outcome> =
            threads.into_iter().map(|t| t.join().expect("no panic")).collect();
        let first_body = &outcomes[0].body;
        for o in &outcomes {
            assert_eq!(&o.body, first_body, "all waiters see identical bytes");
        }
        // Exactly one insertion: the experiment ran once (modulo the
        // documented benign recompute race, which cannot fire here
        // because nothing evicts between check and join).
        assert_eq!(eng.cache_stats().insertions, 1);
        let coalesced_or_cached = outcomes
            .iter()
            .filter(|o| o.coalesced || o.cached)
            .count();
        assert!(
            coalesced_or_cached >= 1,
            "at least one of six concurrent requests must have shared the run"
        );
    }

    #[test]
    fn zero_timeout_times_out_but_still_caches() {
        let eng = Arc::new(Engine::new(
            Arc::new(bench::registry()),
            &EngineConfig {
                workers: 1,
                job_timeout: Some(Duration::ZERO),
                ..EngineConfig::default()
            },
        ));
        let req = fast_request("e2", 11);
        match eng.run(&req) {
            // The overwhelmingly common path: the deadline passes
            // while the job is still queued or running.
            Err(err) => assert_eq!(err, ServeError::Timeout),
            // Theoretically the job can finish inside the submit→wait
            // window on a wildly preempted box; that is not a failure
            // of timeout semantics, so tolerate it.
            Ok(outcome) => assert!(!outcome.cached),
        }
        // The job keeps running and eventually caches; poll for it.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            if eng.cache_stats().insertions >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "timed-out job must still populate the cache"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // A retry is now a hit.
        let retry = eng.run(&req).expect("cached after timeout");
        assert!(retry.cached);
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let eng = engine(&EngineConfig::default());
        eng.shutdown();
        let err = eng.run(&fast_request("e2", 1)).expect_err("draining");
        assert_eq!(err, ServeError::ShuttingDown);
        assert_eq!(err.status(), "shutting_down");
    }

    #[test]
    fn stats_json_shape_is_fixed() {
        let eng = engine(&EngineConfig::default());
        let doc = eng.stats_json();
        let Json::Object(pairs) = &doc else { panic!("stats is an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["cache", "pool", "coalesced"], "SLO state is the metrics op's");
        let pool = doc.get("pool").unwrap();
        for field in ["submitted", "rejected_busy", "completed", "panicked"] {
            assert!(pool.get(field).is_some(), "missing pool.{field}");
        }
    }

    #[test]
    fn telemetry_observes_served_and_rejected_requests() {
        let eng = engine(&EngineConfig { workers: 1, ..EngineConfig::default() });
        eng.run(&fast_request("e2", 3)).expect("cold run");
        eng.run(&fast_request("e2", 3)).expect("cache hit");
        let _ = eng.run(&Request::new("e99")).expect_err("bad request");
        let doc = eng.metrics_json();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(crate::telemetry::METRICS_SCHEMA)
        );
        let run_op = doc.get("run").unwrap().get("ops").unwrap().get("run").unwrap();
        assert_eq!(run_op.get("requests"), Some(&Json::UInt(3)));
        assert_eq!(run_op.get("errors"), Some(&Json::UInt(1)));
        assert_eq!(
            run_op.get("slo").unwrap().get("total"),
            Some(&Json::UInt(3)),
            "SLO accounting sees every request, hits and errors included"
        );
        assert_eq!(run_op.get("slo").unwrap().get("errors"), Some(&Json::UInt(1)));
    }

    #[test]
    fn a_panicking_job_fails_its_request_and_the_engine_serves_on() {
        let eng = engine(&EngineConfig { workers: 1, ..EngineConfig::default() });
        // A `&str` payload and a `String` payload, each named after the
        // job's label.
        let err = eng
            .serve_body("boom-str", "k1".to_owned(), "boom", || {
                std::panic::panic_any("str payload")
            })
            .expect_err("a panicking job fails");
        assert_eq!(err, ServeError::Failed("panic in `boom`: str payload".to_owned()));
        let err = eng
            .serve_body("boom-string", "k2".to_owned(), "boom", || {
                std::panic::panic_any(String::from("string payload"))
            })
            .expect_err("a panicking job fails");
        assert_eq!(err, ServeError::Failed("panic in `boom`: string payload".to_owned()));
        assert_eq!(err.status(), "failed");
        // The engine caught both panics: the flights are retracted,
        // nothing was cached, and the pool saw no panicked job.
        assert!(eng.inflight.lock().unwrap().is_empty(), "in-flight entries retracted");
        assert_eq!(eng.cache_stats().insertions, 0);
        assert_eq!(eng.pool_stats().panicked, 0);
        // ...and the same engine serves the next request.
        let out = eng.run(&fast_request("e2", 5)).expect("served after the panics");
        assert!(!out.cached);
    }

    use sim_observe::Json;
}
