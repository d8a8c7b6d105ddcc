//! The TCP front end: accept loop, per-connection protocol driver,
//! and graceful drain.
//!
//! The listener runs non-blocking and is polled every 10 ms against a
//! shared stop flag, so a drain request never races a blocking
//! `accept`. Each connection gets its own thread (connections are
//! few and long-lived — the worker pool, not the connection count, is
//! the concurrency bound) with a short read timeout, which is what
//! lets an idle connection notice the drain within ~200 ms.
//!
//! Drain semantics, triggered by the `shutdown` op or by the binary's
//! stdin watcher flipping the stop flag:
//!
//! 1. the accept loop closes the listener — new connections are
//!    refused;
//! 2. connection handlers finish the request they are serving, then
//!    answer any *further* request with `shutting_down` and close;
//! 3. the engine's pool is shut down, which drains already-queued
//!    jobs before joining the workers.
//!
//! Nothing in-flight is abandoned: a job that was accepted is
//! computed, cached, and its waiter answered before the process
//! exits.

use crate::engine::{Engine, ServeError};
use crate::proto::{self, Op};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Longest request line the server will buffer before answering
/// `malformed` and hanging up — matches the parser's network bound.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// How long a connection read blocks before re-checking the stop flag.
const READ_POLL: Duration = Duration::from_millis(200);

/// How long the accept loop sleeps between polls of a quiet listener.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// A bound, not-yet-serving server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port, then read
    /// [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, engine: Arc<Engine>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            engine,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually-bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared stop flag; setting it from any thread (e.g. a
    /// stdin-close watcher) begins the graceful drain.
    #[must_use]
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// The engine this server fronts.
    #[must_use]
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.engine)
    }

    /// Runs the accept loop until the stop flag is set, then drains:
    /// joins every connection thread and shuts the engine down.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures; per-connection I/O
    /// errors only end that connection.
    pub fn serve(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let engine = Arc::clone(&self.engine);
                    let stop = Arc::clone(&self.stop);
                    handlers.push(
                        std::thread::Builder::new()
                            .name("serve-conn".to_owned())
                            .spawn(move || handle_connection(stream, &engine, &stop))
                            .expect("spawning a connection thread"),
                    );
                    // Reap finished handlers so the vec stays small on
                    // long-running servers.
                    handlers.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Drain: stop accepting (listener drops at end of scope, but
        // handlers must finish first), finish in-flight connections,
        // then drain the pool.
        for h in handlers {
            let _ = h.join();
        }
        self.engine.shutdown();
        Ok(())
    }
}

/// Drives one connection: read a line, dispatch, write the reply,
/// repeat until EOF, error, or drain.
pub fn handle_connection(stream: TcpStream, engine: &Arc<Engine>, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let mut reader = stream;
    let mut writer = match reader.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Extract complete lines already buffered.
        while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if !serve_line(line, engine, stop, &mut writer) {
                return;
            }
        }
        if buf.len() > MAX_LINE_BYTES {
            let _ = writer.write_all(
                proto::error_header("malformed", "request line exceeds 64 KiB")
                    .as_bytes(),
            );
            return;
        }
        match reader.read(&mut chunk) {
            Ok(0) => return, // EOF: client hung up
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut =>
            {
                // Idle poll tick: if a drain began and nothing is
                // half-received, hang up so the drain can finish.
                if stop.load(Ordering::SeqCst) && buf.is_empty() {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Handles one request line. Returns `false` when the connection
/// should close.
fn serve_line(
    line: &str,
    engine: &Arc<Engine>,
    stop: &AtomicBool,
    writer: &mut TcpStream,
) -> bool {
    if stop.load(Ordering::SeqCst) {
        let _ = writer.write_all(
            proto::error_header("shutting_down", "server is draining").as_bytes(),
        );
        return false;
    }
    let op = match proto::parse_line(line) {
        Ok(op) => op,
        Err(msg) => {
            // A malformed line is answered but the connection stays
            // up: framing is intact (we found the newline), so the
            // peer can correct itself.
            return writer
                .write_all(proto::error_header("malformed", &msg).as_bytes())
                .is_ok();
        }
    };
    match op {
        Op::Ping => writer.write_all(proto::ok_header("ping").as_bytes()).is_ok(),
        // Introspection bodies are compact: one machine-readable line
        // per op. (Report bodies from `run`/`frontier` stay pretty —
        // their exact bytes are the cache/determinism contract.)
        Op::Stats => write_payload("stats", &engine.stats_json().to_compact(), writer),
        Op::Metrics => write_payload("metrics", &engine.metrics_json().to_compact(), writer),
        Op::Shutdown => {
            let _ = writer.write_all(proto::ok_header("shutdown").as_bytes());
            stop.store(true, Ordering::SeqCst);
            false
        }
        Op::Run(req) => write_outcome(engine.run(&req), writer),
        Op::Frontier(req) => write_outcome(engine.frontier(&req), writer),
    }
}

/// Writes a compact introspection body behind its header. Returns
/// `false` when the connection should close.
fn write_payload(op: &str, body: &str, writer: &mut TcpStream) -> bool {
    writer
        .write_all(proto::payload_header(op, body.len()).as_bytes())
        .and_then(|()| writer.write_all(body.as_bytes()))
        .is_ok()
}

/// Writes a body-carrying outcome (or its error header). Returns
/// `false` when the connection should close.
fn write_outcome(
    result: Result<crate::engine::Outcome, ServeError>,
    writer: &mut TcpStream,
) -> bool {
    match result {
        Ok(outcome) => writer
            .write_all(proto::run_header(&outcome).as_bytes())
            .and_then(|()| writer.write_all(outcome.body.as_bytes()))
            .is_ok(),
        Err(err) => {
            // Load-shedding refusals tell the client when to come
            // back; other failures are plain status + reason.
            let header = if err == ServeError::Busy {
                proto::busy_header(&err.to_string(), proto::BUSY_RETRY_AFTER_MS)
            } else {
                proto::error_header(err.status(), &err.to_string())
            };
            let ok = writer.write_all(header.as_bytes()).is_ok();
            // Drain refusals also close the connection.
            ok && err != ServeError::ShuttingDown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::engine::EngineConfig;
    use crate::request::Request;

    fn start_server(cfg: &EngineConfig) -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let engine = Arc::new(Engine::new(Arc::new(bench::registry()), cfg));
        let server = Server::bind("127.0.0.1:0", engine).expect("bind ephemeral");
        let addr = server.local_addr().expect("addr");
        let stop = server.stop_flag();
        let handle = std::thread::spawn(move || server.serve().expect("serve"));
        (addr, stop, handle)
    }

    fn fast_line(name: &str, seed: u64) -> String {
        format!(
            r#"{{"experiment":"{name}","seed":{seed},"trials":2,"params":{{"fast":true}}}}"#
        )
    }

    #[test]
    fn ping_run_hit_stats_shutdown_over_one_connection() {
        let (addr, _stop, handle) = start_server(&EngineConfig::default());
        let mut client = Client::connect(addr).expect("connect");

        let (h, _) = client.roundtrip(r#"{"op":"ping"}"#).expect("ping");
        assert!(h.is_ok());

        let (h1, body1) = client.roundtrip(&fast_line("e2", 42)).expect("run");
        assert!(h1.is_ok());
        assert!(!h1.cached);
        assert_eq!(body1.len(), h1.bytes);

        let (h2, body2) = client.roundtrip(&fast_line("e2", 42)).expect("rerun");
        assert!(h2.cached, "identical request must hit the cache");
        assert_eq!(body1, body2, "hit must be byte-identical");
        assert_eq!(h1.key, h2.key);

        let (hs, stats) = client.roundtrip(r#"{"op":"stats"}"#).expect("stats");
        assert!(hs.is_ok());
        let doc = sim_observe::parse(&stats).expect("stats body is JSON");
        let hits = doc.get("cache").and_then(|c| c.get("hits"));
        assert_eq!(hits, Some(&sim_observe::Json::UInt(1)));
        // Auxiliary bodies are compact — uniform across ops.
        assert_eq!(
            stats,
            doc.to_compact(),
            "stats body must be the compact encoding"
        );
        assert!(!stats.contains('\n'));
        assert_eq!(doc.get("coalesced"), Some(&sim_observe::Json::UInt(0)));
        assert!(doc.get("slo").is_none(), "SLO state is the metrics op's, not stats'");

        let (hd, _) = client.roundtrip(r#"{"op":"shutdown"}"#).expect("shutdown");
        assert!(hd.is_ok());
        handle.join().expect("serve loop exits after shutdown op");
        assert!(
            TcpStream::connect(addr).is_err(),
            "listener must be closed after drain"
        );
    }

    #[test]
    fn frontier_op_round_trips_with_cached_second_hit() {
        let (addr, stop, handle) = start_server(&EngineConfig::default());
        let mut client = Client::connect(addr).expect("connect");
        let line = r#"{"op":"frontier","seed":3,"trials":2,"fast":true}"#;
        let (h1, body1) = client.roundtrip(line).expect("frontier");
        assert!(h1.is_ok());
        assert!(!h1.cached);
        assert_eq!(body1.len(), h1.bytes);
        let doc = sim_observe::parse(&body1).expect("frontier body is JSON");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some("vlsi-sync/frontier-report")
        );
        let (h2, body2) = client.roundtrip(line).expect("frontier again");
        assert!(h2.cached, "identical frontier request must hit the cache");
        assert_eq!(body1, body2);
        assert_eq!(h1.key, h2.key);
        let (hb, _) = client
            .roundtrip(r#"{"op":"frontier","trials":0}"#)
            .expect("bad frontier answered");
        assert_eq!(hb.status, "malformed");
        stop.store(true, Ordering::SeqCst);
        drop(client);
        handle.join().expect("drain");
    }

    #[test]
    fn served_body_matches_engine_core_bytes() {
        let (addr, stop, handle) = start_server(&EngineConfig::default());
        let mut client = Client::connect(addr).expect("connect");
        let (_, body) = client.roundtrip(&fast_line("e3", 9)).expect("run");

        let req = {
            let mut r = Request::new("e3");
            r.seed = 9;
            r.trials = Some(2);
            r.fast = true;
            r
        };
        let registry = bench::registry();
        let exp = registry.get("e3").expect("e3 registered");
        let cfg = req.exp_config(1);
        let report = sim_runtime::run_experiment(exp, &cfg);
        let expected = sim_runtime::json_core(exp, &cfg, &report).to_pretty();
        assert_eq!(body, expected, "wire body == json_core bytes");

        stop.store(true, Ordering::SeqCst);
        drop(client);
        handle.join().expect("drain");
    }

    #[test]
    fn metrics_op_serves_json_and_refuses_fields() {
        let (addr, stop, handle) = start_server(&EngineConfig::default());
        let mut client = Client::connect(addr).expect("connect");
        client.roundtrip(&fast_line("e2", 21)).expect("traffic first");

        let (h, body) = client.roundtrip(r#"{"op":"metrics"}"#).expect("metrics");
        assert!(h.is_ok());
        assert_eq!(body.len(), h.bytes);
        let doc = sim_observe::parse(&body).expect("metrics body is JSON");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some(crate::telemetry::METRICS_SCHEMA)
        );
        assert_eq!(body, doc.to_compact(), "metrics JSON body is compact");
        let run_op = doc
            .get("run")
            .and_then(|r| r.get("ops"))
            .and_then(|o| o.get("run"))
            .expect("per-op section");
        assert_eq!(run_op.get("requests"), Some(&sim_observe::Json::UInt(1)));
        assert_eq!(
            run_op.get("requests"),
            run_op.get("slo").and_then(|s| s.get("total")),
            "requests is the SLO tracker's total"
        );

        // The retired `format` field is a malformed line, named in the
        // answer, and the connection keeps serving.
        let (hp, _) = client
            .roundtrip(r#"{"op":"metrics","format":"prom"}"#)
            .expect("answered");
        assert_eq!(hp.status, "malformed");
        assert!(hp.error.as_deref().unwrap_or("").contains("`format`"), "{hp:?}");
        let (h, _) = client.roundtrip(r#"{"op":"ping"}"#).expect("ping");
        assert!(h.is_ok(), "connection survives the refusal");

        stop.store(true, Ordering::SeqCst);
        drop(client);
        handle.join().expect("drain");
    }

    #[test]
    fn malformed_lines_answer_without_closing() {
        let (addr, stop, handle) = start_server(&EngineConfig::default());
        let mut client = Client::connect(addr).expect("connect");
        let (h, _) = client.roundtrip("this is not json").expect("answered");
        assert_eq!(h.status, "malformed");
        let (h, _) = client
            .roundtrip(r#"{"experiment":"nope"}"#)
            .expect("still answered on the same connection");
        assert_eq!(h.status, "bad_request");
        let (h, _) = client.roundtrip(r#"{"op":"ping"}"#).expect("ping");
        assert!(h.is_ok(), "connection survives malformed traffic");

        stop.store(true, Ordering::SeqCst);
        drop(client);
        handle.join().expect("drain");
    }

    #[test]
    fn stop_flag_drains_idle_connections() {
        let (addr, stop, handle) = start_server(&EngineConfig::default());
        let mut client = Client::connect(addr).expect("connect");
        let (h, _) = client.roundtrip(r#"{"op":"ping"}"#).expect("ping");
        assert!(h.is_ok());
        stop.store(true, Ordering::SeqCst);
        handle.join().expect("idle connections must not block the drain");
    }
}
