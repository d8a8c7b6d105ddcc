//! E12 — graceful degradation under injected faults, scheme by scheme.
//!
//! Sections VI–VII motivate the hybrid scheme partly on robustness
//! grounds: a global clock is a single point of failure whose
//! distribution hardware (long wires, buffer chains) must work
//! perfectly everywhere at once, while self-timed and hybrid arrays
//! confine each failure to a link that can simply retry.
//!
//! This experiment subjects all five synchronization schemes to the
//! *same* seed-derived fault environment — stuck/transient/delayed
//! gates, dead or degraded clock buffers, dropped or delayed handshake
//! transitions — and Monte-Carlo-sweeps fault rate × array size. Every
//! trial terminates in a structured [`RunOutcome`]; the watchdog demo
//! up front shows all four classifications on handcrafted gate-level
//! circuits. Reported per scheme: failure/deadlock/violation
//! probability and throughput retention (nominal period / degraded
//! period over surviving trials).

use crate::grid::{
    clocked_trial, link, policy, tally_results, Clocked, DELTA, EPS, M, RATES, SPACING, TOKENS,
    WAVES,
};
use crate::{f, Table};
use array_layout::prelude::*;
use clock_tree::prelude::*;
use netlist::prelude::*;
use selftimed::prelude::*;
use sim_faults::{FaultPlan, FaultRates, RunOutcome};
use sim_runtime::{rline, ExpConfig, Experiment, Report, SimRng};

/// See the module docs.
#[derive(Debug)]
pub struct E12;

fn ps(v: u64) -> SimTime {
    SimTime::from_ps(v)
}

/// A chain of `n` wires joined by 100 ps inverters, simulated; wire
/// `k` is the chain's `k`-th, so fault-plan sites are chain positions.
fn inverter_chain(n: usize) -> (NetSim, Vec<WireId>) {
    let mut nl = Netlist::new();
    let wires: Vec<WireId> = (0..n).map(|_| nl.add_wire()).collect();
    for w in wires.windows(2) {
        nl.add_inverter(w[0], w[1], ps(100), ps(100));
    }
    (NetSim::from_netlist(nl), wires)
}

fn halt_label(halt: Halt) -> String {
    match halt {
        Halt::Quiescent { at } => format!("quiescent @ {at}"),
        Halt::SimLimit { at } => format!("sim-limit @ {at}"),
        Halt::EventLimit { at } => format!("event-limit @ {at}"),
    }
}

/// All four watchdog classifications on handcrafted circuits, plus one
/// plan-driven injection pass — the "no hangs, ever" contract.
fn watchdog_demo(r: &mut Report, cfg: &ExpConfig) {
    let mut table = Table::new(&["scenario", "halt", "outcome"]);

    // Clean inverter chain: quiesces with the workload done.
    let (mut sim, wires) = inverter_chain(5);
    sim.schedule_input(wires[0], ps(500), true);
    let halt = sim.run_budgeted(RunBudget::new(ps(100_000), 10_000));
    let outcome = classify_run(&sim, halt, sim.value(wires[4]));
    assert_eq!(outcome, RunOutcome::Ok);
    table.row(&["clean inverter chain", &halt_label(halt), outcome.label()]);

    // Stuck rendezvous: the C-element's peer input never rises, the
    // acknowledge never forms — quiescent with the obligation unmet.
    let mut nl = Netlist::new();
    let (req, peer, ack) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
    nl.add_c_element(req, peer, ack, ps(50));
    let mut sim = NetSim::from_netlist(nl);
    sim.pin_wire(peer, false);
    sim.schedule_input(req, ps(100), true);
    let halt = sim.run_budgeted(RunBudget::new(ps(1_000_000), 10_000));
    let outcome = classify_run(&sim, halt, sim.value(ack));
    assert_eq!(outcome, RunOutcome::Deadlock);
    table.row(&["stuck rendezvous", &halt_label(halt), outcome.label()]);

    // Data edge inside the register's setup window.
    let mut nl = Netlist::new();
    let (d, clk, q) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
    nl.add_register(d, clk, q, ps(100), ps(100), ps(20));
    let mut sim = NetSim::from_netlist(nl);
    sim.schedule_input(d, ps(470), true);
    sim.schedule_input(clk, ps(500), true);
    let halt = sim.run_budgeted(RunBudget::new(ps(100_000), 10_000));
    let outcome = classify_run(&sim, halt, true);
    assert_eq!(outcome, RunOutcome::TimingViolation);
    table.row(&["register setup violation", &halt_label(halt), outcome.label()]);

    // Free-running clock: the event budget trips long before its
    // 2,000 edges run out.
    let mut nl = Netlist::new();
    let osc = nl.add_wire();
    let mut sim = NetSim::from_netlist(nl);
    sim.schedule_clock(osc, ps(0), ps(1_000), ps(500), 1_000);
    let halt = sim.run_budgeted(RunBudget::new(ps(u64::MAX / 2), 500));
    let outcome = classify_run(&sim, halt, false);
    assert_eq!(outcome, RunOutcome::Budget);
    table.row(&["free-running oscillator", &halt_label(halt), outcome.label()]);

    // Plan-driven injection over a longer chain, traced when asked.
    let plan = FaultPlan::new(cfg.seed, 0, FaultRates::uniform(0.3));
    let (mut sim, wires) = inverter_chain(25);
    if cfg.tracing() {
        sim.enable_trace(1 << 12);
    }
    let injected = inject_wire_faults(&mut sim, &plan, &wires, ps(50_000));
    assert!(injected > 0, "a 30% plan over 25 wires injects something");
    sim.schedule_input(wires[0], ps(500), true);
    let halt = sim.run_budgeted(RunBudget::new(ps(1_000_000), 100_000));
    let outcome = classify_run(&sim, halt, sim.value(wires[24]));
    table.row(&[
        &format!("plan-driven chain ({injected} faults)"),
        &halt_label(halt),
        outcome.label(),
    ]);
    sim.record_metrics(r.metrics_mut(), "e12.demo");
    if let Some(buf) = sim.take_trace() {
        r.trace_mut().add_track("engine", buf);
    }

    r.table("watchdog_classification", &table);
}

impl Experiment for E12 {
    fn name(&self) -> &'static str {
        "e12"
    }
    fn title(&self) -> &'static str {
        "graceful degradation under injected faults, scheme by scheme"
    }
    fn paper_ref(&self) -> &'static str {
        "Sections VI-VII"
    }
    fn approx_ms(&self) -> u64 {
        140
    }

    fn run(&self, cfg: &ExpConfig, _rng: &mut SimRng) -> Report {
        let mut r = cfg.report();
        rline!(r, "Five schemes face the same seed-derived fault environment:");
        rline!(r, "stuck/transient/delayed gates, dead or degraded clock buffers,");
        rline!(r, "dropped or delayed handshake transitions. Soft faults arrive at");
        rline!(r, "the listed rate; hard faults (stuck gate, dead buffer) at 1/4 of it.");
        rline!(r);

        watchdog_demo(&mut r, cfg);

        let trials = cfg.trials_or(200);
        let sizes = cfg.size(3, 2);
        let ks = &[4usize, 8, 16][..sizes];
        let wdm = WireDelayModel::new(M, EPS);
        let sweep = cfg.sweep();
        let pol = policy();

        rline!(r);
        rline!(
            r,
            "{} trials per cell; retry policy: {} retries, timeout {}; margins",
            trials,
            pol.max_retries,
            f(pol.timeout)
        );
        rline!(r, "absorb skew growth of 0.25d (spine), 0.5d (H-tree), 0.75d (pipelined).");

        // success[scheme][rate] for the current size; kept after the
        // loop for the largest-array ordering check.
        let scheme_names = [
            "global-spine",
            "global-htree",
            "pipelined-htree",
            "hybrid",
            "selftimed",
        ];
        let mut success = [[0.0f64; RATES.len()]; 5];
        for &k in ks {
            let n = k * k;
            let comm = CommGraph::linear(n);
            let row = Layout::linear_row(&comm);
            let comb = Layout::comb(&comm, k);
            let spine_tree = spine(&comm, &row);
            let htree_tree = htree(&comm, &comb).equalized();
            let pairs = comm.communicating_pairs();
            let clocked = [
                Clocked {
                    tree: spine_tree,
                    dist: Distribution::Equipotential { alpha: 1.0 },
                    slack: 0.25 * DELTA,
                    local: false,
                },
                Clocked {
                    tree: htree_tree.clone(),
                    dist: Distribution::Equipotential { alpha: 1.0 },
                    slack: 0.5 * DELTA,
                    local: false,
                },
                Clocked {
                    tree: htree_tree,
                    dist: Distribution::Pipelined {
                        buffer_delay: 1.0,
                        spacing: SPACING,
                        unit_wire_delay: M,
                    },
                    slack: 0.75 * DELTA,
                    local: true,
                },
            ];
            let hybrid = HybridArray::over_mesh(k, HybridParams::new(4, DELTA, M, EPS, link()));
            let chain = HandshakeChain::new(n, link(), 1.0);
            let clean_period = chain.run(TOKENS, None, None).period;

            let mut table = Table::new(&[
                "scheme",
                "fault rate",
                "ok",
                "timing",
                "deadlock",
                "budget",
                "panicked",
                "success",
                "retention",
            ]);
            for (ri, &rate) in RATES.iter().enumerate() {
                let rates_cfg = FaultRates::uniform(rate);
                let plan_seed =
                    cfg.seed ^ ((k as u64) << 32) ^ ((ri as u64 + 1) << 8);
                for (si, name) in scheme_names.iter().enumerate() {
                    let results = match si {
                        0..=2 => {
                            let scheme = &clocked[si];
                            sweep.run_isolated(trials, plan_seed, |t, rng| {
                                let plan = FaultPlan::new(plan_seed, t as u64, rates_cfg);
                                clocked_trial(scheme, &pairs, &wdm, &plan, rng)
                            })
                        }
                        3 => sweep.run_isolated(trials, plan_seed, |t, _rng| {
                            let plan = FaultPlan::new(plan_seed, t as u64, rates_cfg);
                            let (outcome, period) =
                                hybrid.simulate_period_faulty(WAVES, &plan, pol);
                            let retention = if outcome.is_ok() {
                                hybrid.cycle_time() / period
                            } else {
                                0.0
                            };
                            (outcome, retention)
                        }),
                        _ => sweep.run_isolated(trials, plan_seed, |t, _rng| {
                            let plan = FaultPlan::new(plan_seed, t as u64, rates_cfg);
                            let run = chain.run(TOKENS, Some((&plan, pol)), None);
                            let retention = if run.outcome.is_ok() {
                                clean_period / run.period
                            } else {
                                0.0
                            };
                            (run.outcome, retention)
                        }),
                    };
                    let (tally, retention) = tally_results(&results);
                    assert_eq!(
                        tally.total(),
                        trials as u64,
                        "every trial terminates classified"
                    );
                    success[si][ri] = tally.success_rate();
                    table.row(&[
                        name,
                        &f(rate),
                        &tally.ok.to_string(),
                        &tally.timing.to_string(),
                        &tally.deadlock.to_string(),
                        &tally.budget.to_string(),
                        &tally.panicked.to_string(),
                        &f(tally.success_rate()),
                        &(if tally.ok == 0 {
                            "-".to_string()
                        } else {
                            f(retention)
                        }),
                    ]);
                    if k == ks[ks.len() - 1] && ri == RATES.len() - 1 {
                        r.metrics_mut()
                            .add(&format!("e12.{name}.failures"), tally.failures());
                    }
                }
            }
            r.table(&format!("degradation_n{n}"), &table);

            // Fault-free trials always succeed; more faults never help.
            for (si, per_rate) in success.iter().enumerate() {
                assert!(
                    (per_rate[0] - 1.0).abs() < 1e-12,
                    "{}: rate 0 must be all-ok",
                    scheme_names[si]
                );
                for w in per_rate.windows(2) {
                    assert!(
                        w[1] <= w[0] + 0.08,
                        "{}: success should not grow with the fault rate",
                        scheme_names[si]
                    );
                }
            }
        }

        // The paper's robustness argument, quantified: at the largest
        // array and highest fault rate the handshake-based schemes
        // strictly out-survive every globally clocked one.
        if trials >= 20 {
            let hi = RATES.len() - 1;
            for survivor in [3usize, 4] {
                for global in 0..3 {
                    assert!(
                        success[survivor][hi] > success[global][hi],
                        "{} should out-survive {} at peak stress",
                        scheme_names[survivor],
                        scheme_names[global]
                    );
                }
            }
        }

        if cfg.tracing() {
            // A lossy four-stage chain: dropped requests show up as
            // fault_injected markers between the retried transitions.
            let mut hs = sim_observe::TraceBuf::new(1 << 10);
            let drop_rates = FaultRates {
                handshake_drop: 0.25,
                ..FaultRates::none()
            };
            let plan = FaultPlan::new(cfg.seed, 1, drop_rates);
            let chain = HandshakeChain::new(4, link(), 1.0);
            let traced = chain.run(6, Some((&plan, pol)), Some(&mut hs));
            assert!(traced.outcome.is_ok() || traced.drops > 0);
            r.trace_mut().add_track("handshake", hs);
        }

        rline!(r);
        rline!(r, "The clocked schemes die through their distribution hardware: one");
        rline!(r, "dead buffer silences a subtree, and degraded buffers eat the skew");
        rline!(r, "margin -- the failure modes worsen with array size. The hybrid and");
        rline!(r, "fully self-timed arrays have no global hardware to lose: dropped");
        rline!(r, "transitions cost retries (throughput), and only retry exhaustion");
        rline!(r, "deadlocks -- Sections VI-VII's robustness case for local sync.");
        rline!(r);
        rline!(r, "check: all four RunOutcome classes demonstrated; success monotone");
        rline!(r, "in fault rate; hybrid & self-timed out-survive global clocks  [OK]");
        r
    }
}
