//! `serve_mixed`: a closed-loop request mix against a live server.
//!
//! Set-up starts an in-process `sim-serve` server with the default
//! engine configuration on an ephemeral localhost port (registry,
//! engine, worker pool, accept loop), opens the client connection,
//! and warms the hot set: a few experiment reports and one frontier,
//! each checked byte for byte against the library's own output, which
//! is computed once beforehand and not timed.
//!
//! The measured loop is closed: one connection sends the next request
//! of a seeded sequence as soon as the previous reply is in, for the
//! whole window. The mix is [`P_MISS`] cold experiment runs with unique
//! seeds (cache misses that reach the worker pool), [`P_FRONTIER`]
//! cached frontier reads (large bodies), and cached experiment reports
//! for the rest.
//!
//! The whole process — generator, connection handler, accept loop and
//! worker pool — is pinned to one CPU. A request then costs its own
//! work plus same-core context switches, and no thread ever waits for
//! another core to be woken; cross-core wake-ups on a shared virtual
//! host vary by tens of percent from minute to minute and would swamp
//! the server's own cost. Request times are scaled to reference-host
//! time by the [`Clock`] kernels, run on the same core every
//! [`CALIBRATE_EVERY`]: the short kernel for requests under
//! [`SHORT_OP_MS`], the full one for the rest, so each is scaled by a
//! kernel that a neighbour's time slice hits about as often as it.

use crate::calib::Clock;
use crate::spans::{ms, Spans};
use crate::stats::median;
use crate::{Measured, SETUP_REPS};
use bench::grid;
use sim_observe::Json;
use sim_runtime::{json_core, run_experiment, Registry, Rng, SimRng};
use sim_serve::loadgen::request_line;
use sim_serve::{Backoff, Client, Engine, EngineConfig, Request, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Share of requests that are cold experiment runs.
const P_MISS: f64 = 0.2;
/// Share of requests that read the cached frontier.
const P_FRONTIER: f64 = 0.05;
/// Experiments in the mix: the registry's cheap ones, so a cold run
/// costs a few milliseconds of one worker, and ones whose in-report
/// asserts hold at two trials for any seed (e7's statistical check
/// can fire at two trials).
const EXPERIMENTS: [&str; 7] = ["e2", "e3", "e4", "e8", "e9", "e11", "e14"];
/// Seeds per experiment in the hot set.
const HOT_SEEDS: u64 = 2;
/// Monte-Carlo trials per experiment request.
const TRIALS: usize = 2;
/// Trials per grid point of the frontier request.
const FRONTIER_TRIALS: u64 = 4;
/// Cold seeds start here, far from any hot seed; each run seed owns
/// a block of 2^24 of them.
const COLD_SEED_BASE: u64 = 1 << 40;
/// Cold responses re-derived through the library after the window
/// closes.
const VERIFY_COLD: usize = 32;
/// How often the host-speed kernels run between requests.
const CALIBRATE_EVERY: Duration = Duration::from_millis(500);
/// Requests faster than this (ms) are scaled by the short kernel,
/// slower ones by the full one: cache hits take well under it, cold
/// runs well over.
const SHORT_OP_MS: f64 = 0.5;
/// The reported tail percentile: a 30 s window holds tens of thousands
/// of requests, so hundreds lie beyond it.
const TAIL_Q: f64 = 0.99;

fn experiment_request(name: &str, seed: u64) -> Request {
    let mut req = Request::new(name);
    req.seed = seed;
    req.trials = Some(TRIALS);
    req.fast = true;
    req
}

fn frontier_line(seed: u64) -> String {
    Json::obj(vec![
        ("op", Json::from("frontier")),
        ("seed", Json::UInt(seed)),
        ("trials", Json::UInt(FRONTIER_TRIALS)),
        ("fast", Json::Bool(true)),
    ])
    .to_compact()
}

/// The report body the library produces for `req`: what the server
/// must send back byte for byte.
fn library_body(registry: &Registry, req: &Request) -> Result<String, String> {
    let exp = registry
        .get(&req.experiment)
        .ok_or_else(|| format!("unknown experiment `{}`", req.experiment))?;
    let cfg = req.exp_config(1);
    Ok(json_core(exp, &cfg, &run_experiment(exp, &cfg)).to_pretty())
}

/// The frontier body the library produces for [`frontier_line`]: the
/// one-shard in-process sweep the engine runs for a `frontier` op.
fn library_frontier(seed: u64) -> Result<String, String> {
    let m = grid::default_manifest(seed, FRONTIER_TRIALS, 1, FRONTIER_TRIALS, true)?;
    let results = grid::run_sweep_single(&m, 1)?;
    let frontier = grid::sweep_frontier(&grid::sweep_report(&m, &results))?;
    if frontier
        .get("frontier_size")
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
        < 1.0
    {
        return Err("the library's frontier is empty".to_owned());
    }
    Ok(frontier.to_pretty())
}

fn hot_requests(seed: u64) -> Vec<Request> {
    EXPERIMENTS
        .iter()
        .flat_map(|name| {
            (0..HOT_SEEDS).map(move |j| experiment_request(name, seed.wrapping_add(j)))
        })
        .collect()
}

/// What a response must look like.
enum Expect {
    /// Exactly this hot body.
    Hot(usize),
    /// A fresh report under this content key.
    Cold(Request),
    /// Exactly the frontier body.
    Frontier,
}

/// Span names of the request kinds, indexed by [`Expect::kind`].
const KINDS: [&str; 3] = ["hit", "miss", "frontier"];

impl Expect {
    fn kind(&self) -> usize {
        match self {
            Expect::Hot(_) => 0,
            Expect::Cold(_) => 1,
            Expect::Frontier => 2,
        }
    }
}

/// The seeded request sequence: request `i` of a run depends only on
/// the seed.
struct Mix {
    seed: u64,
    rng: SimRng,
    issued: u64,
}

impl Mix {
    fn new(seed: u64) -> Self {
        Mix {
            seed,
            rng: SimRng::seed_from_u64(seed ^ 0x5e7e_5e7e),
            issued: 0,
        }
    }

    fn next(&mut self, hot: &[Request]) -> (String, Expect) {
        self.issued += 1;
        let u = self.rng.gen_f64();
        if u < P_MISS {
            let name = EXPERIMENTS[self.rng.gen_u64_below(EXPERIMENTS.len() as u64) as usize];
            let req = experiment_request(
                name,
                COLD_SEED_BASE
                    .wrapping_add(self.seed << 24)
                    .wrapping_add(self.issued),
            );
            (request_line(&req), Expect::Cold(req))
        } else if u < P_MISS + P_FRONTIER {
            (frontier_line(self.seed), Expect::Frontier)
        } else {
            let i = self.rng.gen_u64_below(hot.len() as u64) as usize;
            (request_line(&hot[i]), Expect::Hot(i))
        }
    }
}

/// The bodies the server must send back, computed by the library.
struct Expected {
    hot: Vec<String>,
    frontier: String,
}

/// A running server with an open client connection and a warmed cache.
struct Stack {
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    server: JoinHandle<std::io::Result<()>>,
    client: Client,
}

impl Stack {
    fn start(seed: u64, hot: &[Request], want: &Expected) -> Result<Stack, String> {
        let registry = Arc::new(bench::registry());
        let engine = Arc::new(Engine::new(registry, &EngineConfig::default()));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine))
            .map_err(|e| format!("cannot bind a localhost port: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let stop = server.stop_flag();
        let server = std::thread::spawn(move || server.serve());
        let mut warm = Client::connect_with_retry(addr, &Backoff::default())
            .map_err(|e| format!("connect {addr}: {e}"))?;
        for (req, want) in hot.iter().zip(&want.hot) {
            if ok_body(warm.roundtrip(&request_line(req)))? != *want {
                return Err(format!("served {} differs from the library's", req.key()));
            }
        }
        if ok_body(warm.roundtrip(&frontier_line(seed)))? != want.frontier {
            return Err("the served frontier differs from the library's".to_owned());
        }
        Ok(Stack {
            engine,
            stop,
            server,
            client: warm,
        })
    }

    /// Closes the connection and drains the server.
    fn stop(self) -> Result<(), String> {
        drop(self.client);
        self.stop.store(true, Ordering::SeqCst);
        self.server
            .join()
            .map_err(|_| "server thread panicked".to_owned())?
            .map_err(|e| format!("accept loop failed: {e}"))
    }
}

fn ok_body(reply: Result<(sim_serve::Header, String), String>) -> Result<String, String> {
    match reply {
        Ok((header, body)) if header.is_ok() => Ok(body),
        Ok((header, _)) => Err(format!(
            "server answered `{}`: {}",
            header.status,
            header.error.unwrap_or_default()
        )),
        Err(e) => Err(e),
    }
}

/// Restricts the calling thread, and every thread it starts from now
/// on, to the first CPU it may run on.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable cpu set of `size` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    let cpu = (0..mask.len() * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the affinity mask is empty")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is read only.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Result<(), String> {
    Err("CPU pinning is only implemented on Linux".to_owned())
}

/// Runs the workload; see the module docs.
pub fn run(seed: u64, window: Duration, spans: &mut Spans) -> Result<Measured, String> {
    if let Err(e) = pin_to_one_cpu() {
        eprintln!("perfbench: serve_mixed: running unpinned: {e}");
    }
    let mut clock = Clock::new();
    let registry = bench::registry();
    let hot = hot_requests(seed);
    let want = Expected {
        hot: hot
            .iter()
            .map(|req| library_body(&registry, req))
            .collect::<Result<_, _>>()?,
        frontier: library_frontier(seed)?,
    };
    let mut setup_s = Vec::new();
    let mut stack = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = Stack::start(seed, &hot, &want)?;
        let t1 = Instant::now();
        spans.record("setup", "server+warm", t0, t1);
        setup_s.push((t1 - t0).as_secs_f64() * clock.factor());
        if rep + 1 < SETUP_REPS {
            s.stop()?;
        } else {
            stack = Some(s);
        }
    }
    let mut stack = stack.expect("at least one set-up repetition");
    let cache_before = stack.engine.cache_stats();
    let client = &mut stack.client;

    let mut mix = Mix::new(seed);
    let mut failed = 0;
    let mut verify = Vec::new();
    let mut latency_ms = Vec::new();
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    // Raw times since the last kernel run, scaled when it runs again.
    let mut pending: Vec<(usize, f64)> = Vec::new();
    clock.factor();
    let start = Instant::now();
    let mut calibrated = start;
    loop {
        let now = Instant::now();
        if now - calibrated >= CALIBRATE_EVERY || now - start >= window {
            let (long, short) = (clock.factor(), clock.short_factor());
            for (kind, raw) in pending.drain(..) {
                let t = raw * if raw < SHORT_OP_MS { short } else { long };
                latency_ms.push(t);
                by_kind[kind].push(t);
            }
            if now - start >= window {
                break;
            }
            calibrated = Instant::now();
        }
        let (line, expect) = mix.next(&hot);
        let t0 = Instant::now();
        let reply = client.roundtrip(&line);
        let t1 = Instant::now();
        let ok = match (&expect, reply) {
            (Expect::Hot(h), Ok((header, body))) => header.is_ok() && body == want.hot[*h],
            (Expect::Cold(req), Ok((header, body))) => {
                let ok = header.is_ok() && header.key.as_deref() == Some(req.key().as_str());
                if ok && verify.len() < VERIFY_COLD {
                    verify.push((req.clone(), body));
                }
                ok
            }
            (Expect::Frontier, Ok((header, body))) => header.is_ok() && body == want.frontier,
            (_, Err(e)) => {
                eprintln!("perfbench: serve_mixed: `{line}`: {e}");
                false
            }
        };
        if !ok {
            eprintln!("perfbench: serve_mixed: `{line}` failed its check");
            failed += 1;
        }
        spans.record("client", KINDS[expect.kind()], t0, t1);
        pending.push((expect.kind(), ms(t1 - t0)));
    }
    let cache = stack.engine.cache_stats();
    stack.stop()?;

    for (req, body) in &verify {
        if *body != library_body(&registry, req)? {
            failed += 1;
        }
    }
    let hits = (cache.hits - cache_before.hits) as f64;
    let misses = (cache.misses - cache_before.misses) as f64;
    Ok(Measured {
        attempted: mix.issued,
        failed,
        setup_s,
        tail_q: TAIL_Q,
        layers: vec![
            ("hit_ms", median(&by_kind[0])),
            ("miss_ms", median(&by_kind[1])),
            ("frontier_hit_ms", median(&by_kind[2])),
            ("cache_hits", hits),
            ("hit_ratio", hits / (hits + misses).max(1.0)),
        ],
        latency_ms,
    })
}
