//! Self-timed handshake communication (Section I and reference \[10\]).
//!
//! In a self-timed scheme, cells synchronize each data transfer
//! locally with a request/acknowledge protocol. Its defining property
//! — the reason the paper considers it at all — is that *the time for
//! a communication event between two cells is independent of the size
//! of the entire processor array*: only the local link matters. Its
//! cost is extra hardware and per-transfer delay.
//!
//! [`HandshakeLink`] models one link's transfer cost under two- or
//! four-phase signalling; [`HandshakeChain`] pushes a token stream
//! through a chain of self-timed stages and measures latency (grows
//! with length) versus throughput (does not), optionally over lossy
//! wires and optionally recording every request/acknowledge
//! transition as `sim-trace` events, which the offline checker
//! validates against the 4-phase ordering discipline.

use sim_faults::{FaultPlan, HandshakeFault, RetryPolicy, RunOutcome};
use sim_observe::{ps_from_units, TraceBuf, TraceEvent};

/// Signalling discipline of a handshake link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Two-phase (transition) signalling: one request transition, one
    /// acknowledge transition per transfer.
    TwoPhase,
    /// Four-phase (return-to-zero) signalling: request and acknowledge
    /// each rise *and* fall per transfer.
    FourPhase,
}

/// One request/acknowledge link between two neighbouring cells.
///
/// # Examples
///
/// ```
/// use selftimed::handshake::{HandshakeLink, Protocol};
///
/// let link = HandshakeLink::new(1.0, 0.5, Protocol::TwoPhase);
/// // 2 wire crossings + 1 latch.
/// assert_eq!(link.transfer_time(), 2.5);
/// let rz = HandshakeLink::new(1.0, 0.5, Protocol::FourPhase);
/// // 4 wire crossings + 2 latch events.
/// assert_eq!(rz.transfer_time(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandshakeLink {
    wire_delay: f64,
    latch_delay: f64,
    protocol: Protocol,
}

impl HandshakeLink {
    /// Creates a link with the given one-way wire delay and latch
    /// (control logic) delay.
    ///
    /// # Panics
    ///
    /// Panics unless both delays are positive.
    #[must_use]
    pub fn new(wire_delay: f64, latch_delay: f64, protocol: Protocol) -> Self {
        assert!(wire_delay > 0.0, "wire delay must be positive");
        assert!(latch_delay > 0.0, "latch delay must be positive");
        HandshakeLink {
            wire_delay,
            latch_delay,
            protocol,
        }
    }

    /// One-way wire delay of the link.
    #[must_use]
    pub fn wire_delay(&self) -> f64 {
        self.wire_delay
    }

    /// Latch/control delay per latch event.
    #[must_use]
    pub fn latch_delay(&self) -> f64 {
        self.latch_delay
    }

    /// The protocol in use.
    #[must_use]
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Time for one complete data transfer across the link.
    ///
    /// Crucially, this depends only on the *local* link — never on the
    /// size of the array (contrast A6's equipotential `τ = α · P`).
    #[must_use]
    pub fn transfer_time(&self) -> f64 {
        match self.protocol {
            Protocol::TwoPhase => 2.0 * self.wire_delay + self.latch_delay,
            Protocol::FourPhase => 4.0 * self.wire_delay + 2.0 * self.latch_delay,
        }
    }
}

/// A chain of self-timed stages connected by identical handshake
/// links: the asynchronous counterpart of a one-dimensional array.
#[derive(Debug, Clone)]
pub struct HandshakeChain {
    stages: usize,
    link: HandshakeLink,
    stage_delay: f64,
}

/// Measurements from pushing a token stream through a
/// [`HandshakeChain`].
///
/// On [`RunOutcome::Deadlock`] the timing fields are infinite — the
/// token never emerged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainRun {
    /// How the run terminated: [`RunOutcome::Ok`] if every token made
    /// it through, [`RunOutcome::Deadlock`] if some transfer exhausted
    /// its retries (the lost transition was never resent).
    pub outcome: RunOutcome,
    /// Time for the first token to traverse the whole chain.
    pub latency: f64,
    /// Steady-state time between successive tokens emerging.
    pub period: f64,
    /// Request or acknowledge transitions the wires dropped.
    pub drops: u64,
    /// Requests re-sent after a timeout.
    pub retries: u64,
}

impl HandshakeChain {
    /// Creates a chain of `stages` cells, each with compute time
    /// `stage_delay`, joined by copies of `link`.
    ///
    /// # Panics
    ///
    /// Panics unless `stages > 0` and `stage_delay > 0`.
    #[must_use]
    pub fn new(stages: usize, link: HandshakeLink, stage_delay: f64) -> Self {
        assert!(stages > 0, "need at least one stage");
        assert!(stage_delay > 0.0, "stage delay must be positive");
        HandshakeChain {
            stages,
            link,
            stage_delay,
        }
    }

    /// Pushes `tokens` through the chain and measures latency and
    /// steady-state period.
    ///
    /// Each stage holds one token at a time; a stage starts a token
    /// when it has finished its previous one and the upstream transfer
    /// completes. The transfer pays [`HandshakeLink::transfer_time`].
    ///
    /// With `faults`, the wires are lossy: each transfer attempt may be
    /// dropped or slowed by the plan (domain-separated from its gate
    /// and buffer streams). A dropped request or acknowledge costs the
    /// sender [`RetryPolicy::timeout`] model-time units before it
    /// re-sends; a transfer that exhausts [`RetryPolicy::max_retries`]
    /// deadlocks the chain — reported as a structured
    /// [`RunOutcome::Deadlock`], never a hang. A delayed transition
    /// stretches that one transfer by its `extra_frac`. Attempts draw
    /// from per-`(stage, token, attempt)` fault streams, so the outcome
    /// is identical across thread counts and call orders. A disabled
    /// plan costs one branch: it runs the clean recurrence.
    ///
    /// With `trace`, every protocol transition is recorded: for each
    /// stage's outgoing link (`chain.link<i>`), the request/acknowledge
    /// transitions of every transfer at the sim times the recurrence
    /// implies (1 model time unit = 1 ns of trace time). Two-phase
    /// links record one `Req`/`Ack` pair per transfer, four-phase
    /// links the full `Req+ → Ack+ → Req− → Ack−` return-to-zero
    /// sequence. Each dropped attempt records its doomed request
    /// followed by a `fault_injected` event on the same link
    /// (`drop_req`/`drop_ack`), which tells the offline checker the
    /// link resynchronized before the retry. Size `trace` to hold all
    /// transitions (at least `tokens × stages × 4`); a ring overflow
    /// drops the oldest ones. Tracing never changes the returned
    /// [`ChainRun`].
    ///
    /// # Panics
    ///
    /// Panics if `tokens < 2`.
    #[must_use]
    pub fn run(
        &self,
        tokens: usize,
        faults: Option<(&FaultPlan, RetryPolicy)>,
        mut trace: Option<&mut TraceBuf>,
    ) -> ChainRun {
        assert!(tokens >= 2, "need at least two tokens to measure a period");
        let faults = faults.filter(|(plan, _)| plan.is_enabled());
        let step = self.stage_delay + self.link.transfer_time();
        let mut run = ChainRun {
            outcome: RunOutcome::Ok,
            latency: 0.0,
            period: 0.0,
            drops: 0,
            retries: 0,
        };
        // completion[i] = completion time of the current token at stage i.
        let mut completion = vec![0.0f64; self.stages];
        let mut prev_out = 0.0;
        let mut period_sum = 0.0;
        for tok in 0..tokens {
            let mut upstream_done = 0.0f64;
            for (i, slot) in completion.iter_mut().enumerate() {
                let start = upstream_done.max(*slot);
                // The stage computes during [start, start+stage_delay],
                // then its outgoing transfer occupies the link.
                let sent = start + self.stage_delay;
                let done = match faults {
                    Some(faults) => {
                        self.lossy_transfer(faults, (i, tok), sent, &mut run, trace.as_deref_mut())
                    }
                    None => {
                        if let Some(buf) = trace.as_deref_mut() {
                            self.record_transfer(buf, i, sent);
                        }
                        // `start + step`, not `sent + transfer_time`:
                        // the two round differently, and the clean
                        // baselines pin this association.
                        Some(start + step)
                    }
                };
                let Some(done) = done else {
                    // Retries exhausted: the transfer is lost for good.
                    return ChainRun {
                        outcome: RunOutcome::Deadlock,
                        latency: f64::INFINITY,
                        period: f64::INFINITY,
                        ..run
                    };
                };
                *slot = done;
                upstream_done = done;
            }
            let out = upstream_done;
            if tok == 0 {
                run.latency = out;
            } else {
                period_sum += out - prev_out;
            }
            prev_out = out;
        }
        run.period = period_sum / (tokens - 1) as f64;
        run
    }

    /// Transfers token `tok` out of stage `i` over a lossy link, the
    /// first attempt starting at model time `t`. Returns the transfer's
    /// completion time, or `None` once the policy's retries run out;
    /// drops and retries are counted into `run`.
    fn lossy_transfer(
        &self,
        (plan, policy): (&FaultPlan, RetryPolicy),
        (i, tok): (usize, usize),
        mut t: f64,
        run: &mut ChainRun,
        mut trace: Option<&mut TraceBuf>,
    ) -> Option<f64> {
        let attempts_per_transfer = u64::from(policy.max_retries) + 1;
        for attempt in 0..attempts_per_transfer {
            if attempt > 0 {
                run.retries += 1;
            }
            let key = (tok as u64) * attempts_per_transfer + attempt;
            match plan.handshake_fault(i as u64, key) {
                Some(fault @ (HandshakeFault::DropReq | HandshakeFault::DropAck)) => {
                    run.drops += 1;
                    if let Some(buf) = trace.as_deref_mut() {
                        self.record_dropped_attempt(buf, i, t, fault);
                    }
                    t += policy.timeout;
                }
                Some(HandshakeFault::Delay { extra_frac }) => {
                    if let Some(buf) = trace {
                        self.record_transfer(buf, i, t);
                    }
                    return Some(t + self.link.transfer_time() * (1.0 + extra_frac));
                }
                None => {
                    if let Some(buf) = trace {
                        self.record_transfer(buf, i, t);
                    }
                    return Some(t + self.link.transfer_time());
                }
            }
        }
        None
    }

    /// Records a dropped transfer attempt on stage `i`'s link: the
    /// doomed request, then the fault marker that resets the link.
    fn record_dropped_attempt(
        &self,
        buf: &mut TraceBuf,
        i: usize,
        t0: f64,
        fault: HandshakeFault,
    ) {
        let link = format!("chain.link{i}");
        let kind = match fault {
            HandshakeFault::DropReq => "drop_req",
            HandshakeFault::DropAck => "drop_ack",
            HandshakeFault::Delay { .. } => "hs_delay",
        };
        buf.record(TraceEvent::HandshakeReq {
            t_ps: ps_from_units(t0),
            link: link.clone(),
            rising: true,
        });
        buf.record(TraceEvent::FaultInjected {
            t_ps: ps_from_units(t0 + self.link.wire_delay()),
            site: link,
            kind: kind.to_string(),
        });
    }

    /// Records one transfer's protocol transitions on stage `i`'s
    /// outgoing link, request asserted at model time `t0`.
    fn record_transfer(&self, buf: &mut TraceBuf, i: usize, t0: f64) {
        let link = format!("chain.link{i}");
        let (w, l) = (self.link.wire_delay(), self.link.latch_delay());
        let req = |t: f64, rising: bool| TraceEvent::HandshakeReq {
            t_ps: ps_from_units(t),
            link: link.clone(),
            rising,
        };
        let ack = |t: f64, rising: bool| TraceEvent::HandshakeAck {
            t_ps: ps_from_units(t),
            link: link.clone(),
            rising,
        };
        match self.link.protocol() {
            Protocol::TwoPhase => {
                // Req crosses the wire, the latch acts, the Ack answers.
                buf.record(req(t0, true));
                buf.record(ack(t0 + w + l, true));
            }
            Protocol::FourPhase => {
                // Return-to-zero: Req+ → Ack+ → Req− → Ack−; the sender
                // sees the final Ack− one wire crossing later, closing
                // the 4w + 2l transfer window.
                buf.record(req(t0, true));
                buf.record(ack(t0 + w + l, true));
                buf.record(req(t0 + 2.0 * w + l, false));
                buf.record(ack(t0 + 3.0 * w + 2.0 * l, false));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> HandshakeLink {
        HandshakeLink::new(1.0, 0.5, Protocol::TwoPhase)
    }

    #[test]
    fn transfer_time_is_local() {
        // The same link cost regardless of how long the chain is —
        // the property that motivates self-timing for large arrays.
        let l = link();
        assert_eq!(l.transfer_time(), 2.5);
    }

    #[test]
    fn four_phase_costs_more() {
        let two = HandshakeLink::new(1.0, 0.5, Protocol::TwoPhase);
        let four = HandshakeLink::new(1.0, 0.5, Protocol::FourPhase);
        assert!(four.transfer_time() > two.transfer_time());
    }

    #[test]
    fn latency_grows_with_chain_length() {
        let short = HandshakeChain::new(4, link(), 1.0).run(10, None, None);
        let long = HandshakeChain::new(64, link(), 1.0).run(10, None, None);
        assert!(long.latency > short.latency);
        // Latency is stages × (stage + transfer).
        assert!((short.latency - 4.0 * 3.5).abs() < 1e-9);
    }

    #[test]
    fn throughput_independent_of_chain_length() {
        let short = HandshakeChain::new(4, link(), 1.0).run(50, None, None);
        let long = HandshakeChain::new(256, link(), 1.0).run(50, None, None);
        assert!(
            (short.period - long.period).abs() < 1e-9,
            "{} vs {}",
            short.period,
            long.period
        );
    }

    #[test]
    fn period_is_stage_plus_transfer() {
        let run = HandshakeChain::new(16, link(), 2.0).run(20, None, None);
        assert!((run.period - (2.0 + 2.5)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two tokens")]
    fn run_needs_tokens() {
        let _ = HandshakeChain::new(2, link(), 1.0).run(1, None, None);
    }

    #[test]
    fn faulty_run_with_disabled_plan_matches_clean_run() {
        use sim_faults::{FaultPlan, RetryPolicy};
        let chain = HandshakeChain::new(8, link(), 1.0);
        let clean = chain.run(12, None, None);
        let disabled = FaultPlan::disabled();
        let faulty = chain.run(12, Some((&disabled, RetryPolicy::new(3, 10.0))), None);
        assert!(faulty.outcome.is_ok());
        assert_eq!((faulty.drops, faulty.retries), (0, 0));
        assert_eq!(faulty, clean, "a disabled plan is bit-identical to no plan");
    }

    #[test]
    fn tracing_never_perturbs_a_chain_run() {
        use sim_faults::{FaultPlan, FaultRates, RetryPolicy};
        let lossy = FaultRates {
            handshake_drop: 0.3,
            handshake_delay: 0.2,
            ..FaultRates::none()
        };
        let plans = [FaultPlan::disabled(), FaultPlan::new(3, 0, lossy)];
        let policy = RetryPolicy::new(8, 10.0);
        for plan in &plans {
            for protocol in [Protocol::TwoPhase, Protocol::FourPhase] {
                for (w, l, stage_delay) in [(0.1, 0.7, 0.3), (0.3, 0.2, 1.1), (1.0, 0.5, 1.0)] {
                    let link = HandshakeLink::new(w, l, protocol);
                    let chain = HandshakeChain::new(3, link, stage_delay);
                    let case = format!(
                        "enabled={} {protocol:?} w={w} l={l} stage_delay={stage_delay}",
                        plan.is_enabled()
                    );
                    let faults = Some((plan, policy));
                    let plain = chain.run(12, faults, None);
                    let mut buf = TraceBuf::new(1 << 12);
                    let traced = chain.run(12, faults, Some(&mut buf));
                    assert_eq!(traced, plain, "{case}");
                    assert!(!buf.is_empty(), "{case}: the trace recorded the run");
                }
            }
        }
    }

    #[test]
    fn dropped_transitions_cost_timeouts_but_recover() {
        use sim_faults::{FaultPlan, FaultRates, RetryPolicy};
        let rates = FaultRates {
            handshake_drop: 0.3,
            ..FaultRates::none()
        };
        let chain = HandshakeChain::new(8, link(), 1.0);
        let clean = chain.run(12, None, None);
        let plan = FaultPlan::new(3, 0, rates);
        let faulty = chain.run(12, Some((&plan, RetryPolicy::new(8, 10.0))), None);
        assert!(faulty.outcome.is_ok(), "{:?}", faulty.outcome);
        assert!(faulty.drops > 0, "30% drop rate over 96 transfers");
        assert_eq!(faulty.retries, faulty.drops, "every drop was retried");
        assert!(faulty.period > clean.period, "timeouts cost throughput");
        // Determinism: the same plan reproduces the run exactly.
        assert_eq!(
            faulty,
            chain.run(12, Some((&plan, RetryPolicy::new(8, 10.0))), None)
        );
    }

    #[test]
    fn exhausted_retries_deadlock_instead_of_hanging() {
        use sim_faults::{FaultPlan, FaultRates, RetryPolicy, RunOutcome};
        let rates = FaultRates {
            handshake_drop: 1.0,
            ..FaultRates::none()
        };
        let chain = HandshakeChain::new(4, link(), 1.0);
        let plan = FaultPlan::new(1, 0, rates);
        let run = chain.run(6, Some((&plan, RetryPolicy::new(2, 10.0))), None);
        assert_eq!(run.outcome, RunOutcome::Deadlock);
        assert!(run.latency.is_infinite() && run.period.is_infinite());
        assert_eq!(run.drops, 3, "initial attempt plus two retries, all lost");
    }

    #[test]
    fn faulty_trace_passes_the_checker() {
        use sim_faults::{FaultPlan, FaultRates, RetryPolicy};
        let rates = FaultRates {
            handshake_drop: 0.3,
            ..FaultRates::none()
        };
        for protocol in [Protocol::TwoPhase, Protocol::FourPhase] {
            let chain =
                HandshakeChain::new(4, HandshakeLink::new(1.0, 0.5, protocol), 1.0);
            let plan = FaultPlan::new(3, 0, rates);
            let mut buf = TraceBuf::new(1 << 12);
            let faults = Some((&plan, RetryPolicy::new(8, 10.0)));
            let traced = chain.run(8, faults, Some(&mut buf));
            assert_eq!(traced, chain.run(8, faults, None));
            assert!(traced.drops > 0, "want dropped transitions in the trace");
            let (events, dropped) = buf.into_ordered();
            assert_eq!(dropped, 0);
            assert!(events.iter().any(|e| e.kind() == "fault_injected"));
            let mut buf = TraceBuf::new(events.len());
            for ev in events {
                buf.record(ev);
            }
            let mut trace = sim_observe::Trace::new();
            trace.add_track("handshake", buf);
            let report = sim_observe::check_trace(&trace);
            assert!(report.is_ok(), "{protocol:?}: {:?}", report.violations);
        }
    }

    #[test]
    fn traced_run_matches_untraced_and_obeys_the_protocol() {
        for protocol in [Protocol::TwoPhase, Protocol::FourPhase] {
            let chain =
                HandshakeChain::new(4, HandshakeLink::new(1.0, 0.5, protocol), 1.0);
            let plain = chain.run(6, None, None);
            let mut buf = TraceBuf::new(4096);
            let traced = chain.run(6, None, Some(&mut buf));
            assert_eq!(plain, traced, "{protocol:?}");

            assert_eq!(buf.dropped(), 0);
            let per_transfer = match protocol {
                Protocol::TwoPhase => 2,
                Protocol::FourPhase => 4,
            };
            assert_eq!(buf.len(), 6 * 4 * per_transfer, "{protocol:?}");

            let mut trace = sim_observe::Trace::new();
            trace.add_track("handshake", buf);
            let report = sim_observe::check_trace(&trace);
            assert!(report.is_ok(), "{protocol:?}: {:?}", report.violations);
        }
    }
}
