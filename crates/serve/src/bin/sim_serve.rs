//! `sim_serve` — serve experiment reports over TCP.
//!
//! ```text
//! sim_serve [--addr HOST] [--port P] [--workers N] [--queue N]
//!           [--cache-bytes N] [--job-threads N] [--job-timeout-secs N]
//!           [--port-file PATH] [--drain-on-stdin-close]
//! ```
//!
//! Binds `HOST:P` (default `127.0.0.1:7071`; `--port 0` picks an
//! ephemeral port, which `--port-file` writes out for scripts) and
//! serves the full experiment registry until a `shutdown` op — or,
//! with `--drain-on-stdin-close`, until stdin reaches EOF, which is
//! how a supervising script triggers a graceful drain without
//! signals. Draining finishes every accepted job before exiting.
//!
//! The live telemetry plane is always on: the `metrics` op accounts
//! every request against the default SLO policy.
//!
//! Exit codes follow the workspace convention: 0 on a clean drain,
//! 1 on runtime failure (bind error), 2 on usage errors; `--help`
//! prints usage on stdout and exits 0.

use sim_runtime::cli::{self, Args, CliError};
use sim_serve::{Engine, EngineConfig, Server};
use std::io::Read;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: sim_serve [--addr HOST] [--port P] [--workers N] [--queue N] \
[--cache-bytes N] [--job-threads N] [--job-timeout-secs N] [--port-file PATH] \
[--drain-on-stdin-close]";

struct Opts {
    addr: String,
    port: u16,
    engine: EngineConfig,
    port_file: Option<String>,
    drain_on_stdin_close: bool,
}

fn parse_opts(mut args: Args) -> Result<Opts, CliError> {
    let mut opts = Opts {
        addr: "127.0.0.1".to_owned(),
        port: 7071,
        engine: EngineConfig::default(),
        port_file: None,
        drain_on_stdin_close: false,
    };
    const COUNT: &str = "a non-negative integer";
    while let Some(arg) = args.next_arg()? {
        match arg.as_str() {
            "--addr" => opts.addr = args.value("--addr")?,
            "--port" => opts.port = args.parse("--port", COUNT)?,
            "--workers" => opts.engine.workers = args.parse("--workers", COUNT)?,
            "--queue" => opts.engine.queue_cap = args.parse("--queue", COUNT)?,
            "--cache-bytes" => opts.engine.cache_bytes = args.parse("--cache-bytes", COUNT)?,
            "--job-threads" => opts.engine.job_threads = args.parse("--job-threads", COUNT)?,
            "--job-timeout-secs" => {
                let secs: u64 = args.parse("--job-timeout-secs", COUNT)?;
                opts.engine.job_timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--port-file" => opts.port_file = Some(args.value("--port-file")?),
            "--drain-on-stdin-close" => opts.drain_on_stdin_close = true,
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = cli::resolve(USAGE, parse_opts(Args::from_env()))
        .unwrap_or_else(|code| std::process::exit(code));
    let engine = Arc::new(Engine::new(Arc::new(bench::registry()), &opts.engine));
    let bind_addr = format!("{}:{}", opts.addr, opts.port);
    let server = match Server::bind(&bind_addr, engine) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("sim_serve: cannot bind {bind_addr}: {e}");
            std::process::exit(1);
        }
    };
    let addr = match server.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("sim_serve: cannot resolve the bound address: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &opts.port_file {
        if let Err(e) = sim_runtime::write_atomic(path, &format!("{}\n", addr.port())) {
            eprintln!("sim_serve: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    eprintln!(
        "sim_serve: listening on {addr} ({} workers, queue {}, cache {} bytes, \
         job timeout {})",
        opts.engine.workers,
        opts.engine.queue_cap,
        opts.engine.cache_bytes,
        opts.engine
            .job_timeout
            .map_or("none".to_owned(), |t| format!("{}s", t.as_secs())),
    );
    if opts.drain_on_stdin_close {
        let stop = server.stop_flag();
        std::thread::Builder::new()
            .name("stdin-watch".to_owned())
            .spawn(move || {
                // Consume stdin until EOF; the supervising script
                // holds the write end open for the server's lifetime.
                let mut sink = [0u8; 1024];
                let mut stdin = std::io::stdin().lock();
                while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
                eprintln!("sim_serve: stdin closed, draining");
                stop.store(true, Ordering::SeqCst);
            })
            .expect("spawning the stdin watcher");
    }
    match server.serve() {
        Ok(()) => eprintln!("sim_serve: drained cleanly"),
        Err(e) => {
            eprintln!("sim_serve: accept loop failed: {e}");
            std::process::exit(1);
        }
    }
}
