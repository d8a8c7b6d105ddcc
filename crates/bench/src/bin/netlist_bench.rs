//! `netlist_bench` — fixed million-gate workloads on the flat netlist
//! core, snapshotted for the regression gate.
//!
//! ```text
//! netlist_bench [--stages N] [--cycles N] [--side N] [--rate R]
//!               [--seed S] [--out FILE] [--min-eps N]
//! ```
//!
//! Two workloads, both deterministic in the flags:
//!
//! * the e6 pipelined clock train on an N-stage inverter string
//!   (default 1,000,000 — the paper's chip at ~500× length);
//! * one nominal and one faulted wavefront across a side×side mesh
//!   (default 1000×1000, the e12-style sweep's arena).
//!
//! The snapshot (`--out`, default `target/bench/BENCH_netlist.json`)
//! carries the engine counters — events, peak queue depth, settle
//! iterations — in deterministic sections that `bench_regress
//! --compare` diffs byte-exactly against `baselines/BENCH_netlist.json`,
//! plus a volatile top-level `run` section (wall clock, events/sec)
//! that is only structurally checked. `--min-eps` makes the binary
//! itself a throughput smoke: exit 1 if the combined event rate falls
//! below the floor (catches a scheduler or settle-loop slowdown even
//! when the counters still match).

use netlist::prelude::*;
use sim_faults::{FaultPlan, FaultRates};
use sim_observe::{Json, SpanTimer};
use sim_runtime::cli::{self, Args, CliError};

const USAGE: &str = "usage: netlist_bench [--stages N] [--cycles N] [--side N] [--rate R] \
[--seed S] [--out FILE] [--min-eps N]";

struct Opts {
    stages: usize,
    cycles: usize,
    side: usize,
    rate: f64,
    seed: u64,
    out: std::path::PathBuf,
    min_eps: Option<f64>,
}

fn parse_opts(mut args: Args) -> Result<Opts, CliError> {
    let mut opts = Opts {
        stages: 1_000_000,
        cycles: 2,
        side: 1_000,
        rate: 0.002,
        seed: 1,
        out: std::path::PathBuf::from("target/bench/BENCH_netlist.json"),
        min_eps: None,
    };
    while let Some(arg) = args.next_arg()? {
        match arg.as_str() {
            "--stages" => opts.stages = args.parse("--stages", "a positive even integer")?,
            "--cycles" => opts.cycles = args.parse("--cycles", "a positive integer")?,
            "--side" => opts.side = args.parse("--side", "a positive integer")?,
            "--rate" => opts.rate = args.finite("--rate", "a probability in [0, 1]")?,
            "--seed" => opts.seed = args.parse("--seed", "a non-negative integer")?,
            "--out" => opts.out = args.value("--out")?.into(),
            "--min-eps" => {
                opts.min_eps = Some(args.finite("--min-eps", "a non-negative event rate")?);
            }
            other => return Err(cli::unknown(other)),
        }
    }
    if opts.stages == 0 || !opts.stages.is_multiple_of(2) {
        return Err(CliError::Usage("--stages needs a positive even integer".to_owned()));
    }
    if opts.side == 0 {
        return Err(CliError::Usage("--side needs a positive integer".to_owned()));
    }
    if opts.rate > 1.0 {
        return Err(CliError::Usage("--rate needs a probability in [0, 1]".to_owned()));
    }
    Ok(opts)
}

fn stats_json(stats: &EngineStats) -> Json {
    Json::obj(vec![
        ("events_scheduled", Json::UInt(stats.events_scheduled)),
        ("events_processed", Json::UInt(stats.events_processed)),
        ("cancellations", Json::UInt(stats.cancellations)),
        ("dead_events", Json::UInt(stats.dead_events)),
        ("peak_queue_depth", Json::UInt(stats.peak_queue_depth)),
        ("settle_iterations", Json::UInt(stats.settle_iterations)),
    ])
}

/// The pipelined clock train of e6's million-gate section, counted.
fn string_workload(opts: &Opts) -> (Json, u64) {
    let spec = InverterStringSpec {
        stages: opts.stages,
        ..InverterStringSpec::paper_chip(opts.seed)
    };
    let chip = InverterString::fabricate(spec);
    let equip = chip.total_delay_both_edges();
    let shrink = chip.worst_prefix_shrinkage_ps().unsigned_abs();
    let period = SimTime::from_ps(2 * shrink + 8 * spec.base_delay.as_ps());
    let high = SimTime::from_ps(period.as_ps() / 2);
    let (clk, far) = (WireId::from_index(0), WireId::from_index(opts.stages));
    let mut sim = NetSim::from_netlist(chip.netlist());
    sim.watch(far);
    sim.schedule_clock(clk, SimTime::from_ps(10), period, high, opts.cycles);
    let limit = SimTime::from_ps(
        10 + opts.cycles as u64 * period.as_ps() + 4 * equip.as_ps(),
    );
    let settled = sim
        .run_to_quiescence(limit)
        .unwrap_or_else(|e| panic!("string failed to settle: {e}"));
    let stats = sim.stats();
    let doc = Json::obj(vec![
        ("stages", Json::UInt(opts.stages as u64)),
        ("cycles", Json::UInt(opts.cycles as u64)),
        ("period_ps", Json::UInt(period.as_ps())),
        (
            "edges_delivered",
            Json::UInt(sim.transitions_ps(far).len() as u64),
        ),
        ("sim_time_ps", Json::UInt(settled.as_ps())),
        ("stats", stats_json(&stats)),
    ]);
    (doc, stats.events_processed)
}

fn wave_json(out: &netlist::mesh::WaveOutcome) -> Json {
    Json::obj(vec![
        ("reached", Json::UInt(out.reached as u64)),
        ("cells", Json::UInt(out.cells as u64)),
        ("first_arrival_ps", Json::UInt(out.first_arrival_ps)),
        ("last_arrival_ps", Json::UInt(out.last_arrival_ps)),
        (
            "faults",
            Json::obj(vec![
                ("stuck", Json::UInt(out.faults.stuck as u64)),
                ("transient", Json::UInt(out.faults.transient as u64)),
                ("delayed", Json::UInt(out.faults.delayed as u64)),
            ]),
        ),
        ("stats", stats_json(&out.stats)),
    ])
}

/// One nominal and one faulted wavefront over the shared mesh arena.
fn mesh_workload(opts: &Opts) -> (Json, u64) {
    let mesh = MeshSpec::square(opts.side, opts.seed).build();
    let nominal = mesh.run_wave(&FaultPlan::disabled());
    let faulted = mesh.run_wave(&FaultPlan::new(
        opts.seed,
        0,
        FaultRates::uniform(opts.rate),
    ));
    let events = nominal.stats.events_processed + faulted.stats.events_processed;
    let doc = Json::obj(vec![
        ("side", Json::UInt(opts.side as u64)),
        ("fault_rate", Json::Float(opts.rate)),
        ("nominal", wave_json(&nominal)),
        ("faulted", wave_json(&faulted)),
    ]);
    (doc, events)
}

fn main() {
    let opts = cli::resolve(USAGE, parse_opts(Args::from_env()))
        .unwrap_or_else(|code| std::process::exit(code));

    let timer = SpanTimer::start();
    let (string_doc, string_events) = string_workload(&opts);
    let (mesh_doc, mesh_events) = mesh_workload(&opts);
    let wall_ms = timer.elapsed_ms();
    let total_events = string_events + mesh_events;
    let events_per_sec = total_events as f64 / (wall_ms / 1_000.0).max(1e-9);

    let doc = Json::obj(vec![
        ("schema", Json::Str("vlsi-sync/netlist-bench".to_owned())),
        ("schema_version", Json::UInt(1)),
        ("bench", Json::Str("netlist".to_owned())),
        (
            "config",
            Json::obj(vec![
                ("stages", Json::UInt(opts.stages as u64)),
                ("cycles", Json::UInt(opts.cycles as u64)),
                ("side", Json::UInt(opts.side as u64)),
                ("fault_rate", Json::Float(opts.rate)),
                ("seed", Json::UInt(opts.seed)),
            ]),
        ),
        ("string", string_doc),
        ("mesh", mesh_doc),
        (
            "run",
            Json::obj(vec![
                ("wall_ms", Json::Float(wall_ms)),
                ("events_processed", Json::UInt(total_events)),
                ("events_per_sec", Json::Float(events_per_sec)),
            ]),
        ),
    ]);

    let rendered = doc.to_pretty();
    if let Some(dir) = opts.out.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    if let Err(e) = std::fs::write(&opts.out, &rendered) {
        eprintln!("cannot write {}: {e}", opts.out.display());
        std::process::exit(1);
    }
    println!(
        "netlist_bench: {total_events} events in {wall_ms:.0} ms \
         ({events_per_sec:.0} events/sec) -> {}",
        opts.out.display()
    );
    if let Some(floor) = opts.min_eps {
        if events_per_sec < floor {
            eprintln!(
                "netlist_bench: throughput {events_per_sec:.0} events/sec \
                 below the --min-eps floor {floor:.0}"
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, CliError> {
        parse_opts(Args::new(args.iter().copied()))
    }

    #[test]
    fn workloads_it_cannot_run_are_usage_errors() {
        for bad in [
            &["--side", "0"][..],
            &["--stages", "0"],
            &["--stages", "3"],
            &["--rate", "2"],
            &["--rate", "-0.1"],
            &["--rate", "NaN"],
            &["--min-eps", "NaN"],
            &["--min-eps", "-1"],
            &["--side", "many"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        let ok = parse(&["--side", "1", "--stages", "2", "--rate", "1"]).unwrap();
        assert_eq!((ok.side, ok.stages, ok.rate), (1, 2, 1.0));
        assert!(parse(&["--rate", "0"]).is_ok());
    }
}
