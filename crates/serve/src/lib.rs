//! `sim-serve` — the experiment-serving subsystem.
//!
//! Everything the rest of the workspace computes is deterministic: a
//! `(experiment, seed, trials, params)` tuple names exactly one report
//! byte string. This crate exploits that by putting a server in front
//! of the experiment registry, so repeated and concurrent consumers —
//! dashboards, sweeps, CI — pay for each distinct configuration once:
//!
//! * [`request`] — the canonical request form and its content address.
//!   Normalization (default-fill + fixed field order) lives here and
//!   nowhere else; every other layer keys on its output.
//! * [`cache`] — content-addressed LRU result cache with a byte-size
//!   bound and hit/miss/eviction counters.
//! * [`pool`] — bounded worker pool; a full queue is a structured
//!   `busy` rejection, not a hidden backlog.
//! * [`engine`] — the serving policy: cache → single-flight
//!   coalescing → pool, with waiter-side timeouts.
//! * [`proto`] — line-delimited JSON protocol with length-prefixed
//!   bodies, parsed under hardened network limits.
//! * [`server`] — TCP accept loop, per-connection driver, graceful
//!   drain that finishes in-flight work.
//! * [`client`] — blocking protocol client.
//! * [`telemetry`] — the `metrics` op's one JSON document: per-op
//!   counts, windowed latency, SLO state, last gauge readings.
//! * [`loadgen`] — seeded request-mix generator and the
//!   `BENCH_serve.json` snapshot for the regression gate.
//!
//! The binaries `sim_serve` (server), `sim_loadgen` (load generator)
//! and `sim_top` (metrics viewer) are thin argument-parsing shells
//! over these modules.
//!
//! Served bodies are the *deterministic core* of the CLI's `--json`
//! output (`sim_runtime::json_core`), byte-identical across thread
//! counts — the property that makes caching sound and lets the
//! serve-determinism tests compare wire bytes against direct
//! library-call bytes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod client;
pub mod engine;
pub mod loadgen;
pub mod pool;
pub mod proto;
pub mod request;
pub mod server;
pub mod telemetry;

pub use cache::{Cache, CacheStats};
pub use client::{Backoff, Client};
pub use engine::{Engine, EngineConfig, Outcome, ServeError};
pub use loadgen::{LoadgenConfig, LoadResult, MixSummary};
pub use pool::{Pool, PoolStats, SubmitError};
pub use proto::{Header, Op};
pub use request::{FrontierRequest, Request};
pub use server::Server;
pub use telemetry::{EngineTelemetry, GaugeSnapshot, METRICS_SCHEMA, METRICS_SCHEMA_VERSION};
