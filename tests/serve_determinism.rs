//! Serve-determinism contract: the bytes a `sim-serve` server puts on
//! the wire are exactly the bytes the CLI's `--json` writes for the
//! same `(experiment, seed, trials, params)` — and a repeated request
//! is a *recorded* cache hit carrying the identical body.
//!
//! "CLI `--json` output" here means the deterministic core
//! (`sim_runtime::json_core`): `tests/determinism.rs` pins that the
//! full `--json` document minus its volatile `run` section equals the
//! core byte-for-byte, so matching the core *is* matching the CLI
//! output on every byte that is stable across runs. That equivalence
//! is what makes the server's cache sound: a cached body can never go
//! stale, because the same request can never produce different bytes.

use sim_runtime::{json_core, run_experiment};
use sim_serve::{Client, Engine, EngineConfig, Request, Server};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What the CLI would emit (deterministic core) for a request.
fn cli_json_bytes(req: &Request) -> String {
    let registry = bench::registry();
    let exp = registry
        .get(&req.experiment)
        .expect("experiment is registered");
    let cfg = req.exp_config(1);
    let report = run_experiment(exp, &cfg);
    json_core(exp, &cfg, &report).to_pretty()
}

#[test]
fn served_e2_seed42_fast_is_byte_identical_to_cli_json() {
    let engine = Arc::new(Engine::new(
        Arc::new(bench::registry()),
        &EngineConfig::default(),
    ));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind");
    let addr = server.local_addr().expect("addr");
    let stop = server.stop_flag();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));

    let mut client = Client::connect(addr).expect("connect");
    let line = r#"{"experiment":"e2","seed":42,"params":{"fast":true}}"#;

    let (h1, body1) = client.roundtrip(line).expect("first request");
    assert!(h1.is_ok());
    assert!(!h1.cached, "first request computes");

    let mut req = Request::new("e2");
    req.seed = 42;
    req.fast = true;
    assert_eq!(
        body1,
        cli_json_bytes(&req),
        "wire body must equal the CLI --json deterministic core"
    );

    // The repeat is a recorded hit with the identical body.
    let (h2, body2) = client.roundtrip(line).expect("repeat request");
    assert!(h2.cached, "repeat must be served from cache");
    assert_eq!(body1, body2, "cache hit must be byte-identical");
    assert_eq!(h1.key, h2.key, "same canonical request, same content key");
    assert_eq!(engine.cache_stats().hits, 1, "the hit was recorded");

    stop.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("drain");
}

#[test]
fn metrics_op_round_trips_and_quiet_scrapes_are_byte_identical() {
    use sim_observe::Json;

    let engine = Arc::new(Engine::new(
        Arc::new(bench::registry()),
        &EngineConfig::default(),
    ));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind");
    let addr = server.local_addr().expect("addr");
    let stop = server.stop_flag();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));

    let mut client = Client::connect(addr).expect("connect");
    // Some traffic so the telemetry has something to report.
    for seed in [1, 2, 1] {
        let line =
            format!(r#"{{"experiment":"e2","seed":{seed},"trials":2,"params":{{"fast":true}}}}"#);
        let (h, _) = client.roundtrip(&line).expect("served");
        assert!(h.is_ok());
    }

    // The JSON body parses back under the same network limits the
    // server itself applies, and carries the schema + live counters.
    let (h, body) = client.roundtrip(r#"{"op":"metrics"}"#).expect("metrics");
    assert!(h.is_ok());
    assert_eq!(h.bytes, body.len());
    let doc = sim_observe::parse_with_limits(&body, sim_observe::ParseLimits::network())
        .expect("metrics body parses back");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(sim_serve::METRICS_SCHEMA)
    );
    let run_op = doc
        .get("run")
        .and_then(|r| r.get("ops"))
        .and_then(|o| o.get("run"))
        .expect("per-op telemetry for `run`");
    assert_eq!(run_op.get("requests"), Some(&Json::UInt(3)));
    assert!(run_op.get("slo").and_then(|s| s.get("attainment")).is_some());

    assert_eq!(
        run_op.get("requests"),
        run_op.get("slo").and_then(|s| s.get("total")),
        "requests is the SLO tracker's total"
    );

    // No-scrape-sampling contract: scraping records nothing, so two
    // quiet scrapes produce byte-identical bodies.
    let (_, body2) = client.roundtrip(r#"{"op":"metrics"}"#).expect("quiet scrape");
    assert_eq!(body, body2, "quiet JSON scrapes must be byte-identical");

    stop.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("drain");
}

#[test]
fn every_registered_experiment_serves_cli_identical_bytes() {
    let engine = Arc::new(Engine::new(
        Arc::new(bench::registry()),
        &EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        },
    ));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind");
    let addr = server.local_addr().expect("addr");
    let stop = server.stop_flag();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));

    let mut client = Client::connect(addr).expect("connect");
    for name in bench::registry().names() {
        // No trials override: each experiment's own fast-mode default
        // is the smallest size it guarantees to be well-posed at
        // (e.g. E5 needs enough trials to observe any events at all).
        let line = format!(
            r#"{{"experiment":"{name}","seed":7,"params":{{"fast":true}}}}"#
        );
        let (header, body) = client.roundtrip(&line).expect("served");
        assert!(header.is_ok(), "{name}: {:?}", header.error);

        let mut req = Request::new(name);
        req.seed = 7;
        req.fast = true;
        assert_eq!(
            body,
            cli_json_bytes(&req),
            "{name}: wire bytes diverged from the CLI core"
        );
        assert_eq!(header.key.as_deref(), Some(req.key().as_str()), "{name}: content key mismatch");
    }

    stop.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("drain");
}
