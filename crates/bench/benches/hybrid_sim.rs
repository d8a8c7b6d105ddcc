//! Microbenchmarks for the hybrid-scheme wave simulation and the
//! self-timed throughput model (experiments E5 and E7).

use bench::timing::{bench, group};
use selftimed::prelude::*;
use systolic::prelude::*;

fn main() {
    let link = HandshakeLink::new(1.0, 0.5, Protocol::TwoPhase);
    let params = HybridParams::new(4, 2.0, 1.0, 0.1, link);
    group("hybrid_simulate_100_waves");
    for n in [16usize, 64, 256] {
        let h = HybridArray::over_mesh(n, params);
        bench(&format!("hybrid_simulate_100_waves/{n}"), || {
            h.simulate_period(100, 0.3, 1)
        });
    }

    group("selftimed_600_waves");
    for k in [16usize, 256] {
        let m = PipelineModel::new(k, 1.0, 2.0, 0.9);
        bench(&format!("selftimed_600_waves/{k}"), || m.simulate(600, 7));
    }

    let chain = HandshakeChain::new(256, link, 1.0);
    bench("handshake_chain_256_stages_50_tokens", || chain.run(50, None, None));

    {
        use desim::prelude::*;
        bench("muller_pipeline_32_stages_gate_level", || {
            MullerPipeline::new(32, SimTime::from_ps(100), SimTime::from_ps(50))
                .run(SimTime::from_ps(100_000))
        });
    }

    {
        use clock_tree::prelude::*;
        bench("a8_jitter_train_1024_stages_64_events", || {
            propagate_event_train(1024, 64, 10.0, 1.0, 0.1, 2.0, 1)
        });
    }
}
