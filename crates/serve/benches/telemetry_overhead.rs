//! Telemetry overhead guard: what one telemetry sample costs in
//! isolation, what the engine's request path costs with telemetry on a
//! cache-hit request — where the request itself does the least work
//! and any overhead is most visible — and what a metrics scrape costs.

use bench::timing::{bench, group};
use sim_serve::{Engine, EngineConfig, Request};
use std::sync::Arc;

fn engine() -> Arc<Engine> {
    let cfg = EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    };
    Arc::new(Engine::new(Arc::new(bench::registry()), &cfg))
}

fn hot_request() -> Request {
    let mut req = Request::new("e2");
    req.seed = 7;
    req.trials = Some(2);
    req.fast = true;
    req
}

fn main() {
    // Primitives first: what one telemetry sample costs in isolation.
    group("timeseries_primitives");
    {
        use sim_observe::timeseries::{SloTracker, WindowedHistogram};
        let mut win = WindowedHistogram::new(60, 1_000);
        let mut t = 0u64;
        bench("windowed_histogram/record", || {
            t += 17;
            win.record(t, 1_000_000);
            win.recorded()
        });
        let mut slo = SloTracker::new(sim_observe::SloPolicy::default());
        bench("slo_tracker/record", || {
            slo.record(1_000_000, true);
            slo.total()
        });
    }

    // The end-to-end request path on a warm cache: the experiment work
    // is a lookup, so the telemetry share is as large as it gets.
    group("engine_cached_run");
    let req = hot_request();
    let eng = engine();
    eng.run(&req).expect("prime the cache");
    bench("engine_cached_run/telemetry_enabled", || {
        let out = eng.run(&req).expect("cache hit");
        (out.cached, out.body.len())
    });

    // Scrape cost: rendering the metrics document must be cheap enough
    // to poll every second, and it samples nothing (read-only).
    group("metrics_scrape");
    bench("metrics_scrape/json", || eng.metrics_json().to_compact().len());
}
