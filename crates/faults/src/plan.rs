//! The deterministic fault plan: rates, per-site fault draws, and the
//! bounded-retry policy lossy protocols run under.

use sim_runtime::{Rng, SimRng, SplitMix64};

/// Per-category fault probabilities (each in `[0, 1]`) plus the
/// severity knobs for the non-binary faults.
///
/// A rate of 0 disables its category; [`FaultRates::none`] disables
/// everything, and a plan built from it reports
/// [`FaultPlan::is_enabled`] `false` so hot paths can skip fault
/// queries with a single branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability a gate output is stuck at a constant level.
    pub gate_stuck: f64,
    /// Probability a gate suffers one transient (SEU-style) upset
    /// somewhere in the run window.
    pub gate_transient: f64,
    /// Probability a gate's propagation delay is inflated or deflated.
    pub gate_delay: f64,
    /// Maximum fractional delay change for a delay fault (0.5 means
    /// the scale is drawn from `[-50 %, +50 %]` around nominal).
    pub delay_spread: f64,
    /// Probability a clock-tree buffer is dead (no clock below it).
    pub buffer_dead: f64,
    /// Probability a clock-tree buffer is degraded (slow but alive).
    pub buffer_degraded: f64,
    /// Maximum fractional extra delay of a degraded buffer.
    pub degrade_spread: f64,
    /// Probability one handshake transition (req or ack) is dropped.
    pub handshake_drop: f64,
    /// Probability one handshake transition is delayed (not lost).
    pub handshake_delay: f64,
}

impl FaultRates {
    /// All categories disabled.
    #[must_use]
    pub const fn none() -> Self {
        FaultRates {
            gate_stuck: 0.0,
            gate_transient: 0.0,
            gate_delay: 0.0,
            delay_spread: 0.5,
            buffer_dead: 0.0,
            buffer_degraded: 0.0,
            degrade_spread: 1.0,
            handshake_drop: 0.0,
            handshake_delay: 0.0,
        }
    }

    /// The e12 fault mix at overall severity `rate`: transient,
    /// delay, degraded-buffer, and handshake faults at `rate`, the
    /// unrecoverable hard faults (stuck-at, dead buffer) at a quarter
    /// of it — hard failures are rarer than soft ones on real silicon.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is in `[0, 1]`.
    #[must_use]
    pub fn uniform(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0,1]");
        FaultRates {
            gate_stuck: rate / 4.0,
            gate_transient: rate,
            gate_delay: rate,
            buffer_dead: rate / 4.0,
            buffer_degraded: rate,
            handshake_drop: rate,
            handshake_delay: rate,
            ..FaultRates::none()
        }
    }

    /// Whether every category is disabled.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.gate_stuck == 0.0
            && self.gate_transient == 0.0
            && self.gate_delay == 0.0
            && self.buffer_dead == 0.0
            && self.buffer_degraded == 0.0
            && self.handshake_drop == 0.0
            && self.handshake_delay == 0.0
    }
}

/// A fault drawn for one gate (or inverter, or generic net driver).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GateFault {
    /// Output wedged at a constant level for the whole run.
    StuckAt(bool),
    /// One transient bit flip at fraction `at_frac` (in `[0, 1)`) of
    /// the observation window — the caller maps it to a sim time.
    Transient {
        /// Position of the upset within the run window.
        at_frac: f64,
    },
    /// Propagation delay scaled to `scale_pct` percent of nominal
    /// (100 = nominal; never 0 — a faulted gate still takes time).
    Delay {
        /// New delay in percent of nominal.
        scale_pct: u32,
    },
}

/// A fault drawn for one clock-tree buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BufferFault {
    /// The buffer never switches: everything below it loses the clock.
    Dead,
    /// The buffer is slow: its edge contributes `extra_frac` more
    /// delay than nominal.
    Degraded {
        /// Fractional extra delay, in `(0, degrade_spread]`.
        extra_frac: f64,
    },
}

/// A fault drawn for one handshake transfer attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HandshakeFault {
    /// The request transition is lost on the wire.
    DropReq,
    /// The acknowledge transition is lost on the wire.
    DropAck,
    /// The transfer completes but takes `extra_frac` longer.
    Delay {
        /// Fractional extra transfer time, in `(0, 1]`.
        extra_frac: f64,
    },
}

/// How a lossy protocol recovers: how many resends it attempts and how
/// long it waits before declaring a transition lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Resend attempts after the first try (0 = give up immediately).
    pub max_retries: u32,
    /// Time charged per lost transition before the resend fires, in
    /// the caller's delay units.
    pub timeout: f64,
}

impl RetryPolicy {
    /// A policy with `max_retries` resends and the given timeout.
    ///
    /// # Panics
    ///
    /// Panics unless `timeout` is positive and finite.
    #[must_use]
    pub fn new(max_retries: u32, timeout: f64) -> Self {
        assert!(
            timeout > 0.0 && timeout.is_finite(),
            "retry timeout must be positive"
        );
        RetryPolicy {
            max_retries,
            timeout,
        }
    }
}

/// Site-address domains, folded into the hash so a gate and a buffer
/// with the same numeric id draw independent faults.
const DOMAIN_GATE: u64 = 0x67617465; // "gate"
const DOMAIN_BUFFER: u64 = 0x62756666; // "buff"
const DOMAIN_HANDSHAKE: u64 = 0x68736861; // "hsha"

/// A deterministic fault plan for one Monte-Carlo trial.
///
/// The plan owns no site list: it answers point queries. Each query
/// seeds a fresh [`SimRng`] from `hash(stream, domain, site)`, so the
/// same `(seed, trial, site)` triple always draws the same fault — no
/// matter when, from which thread, or how often it is asked.
///
/// # Examples
///
/// ```
/// use sim_faults::{FaultPlan, FaultRates};
///
/// let plan = FaultPlan::new(1, 0, FaultRates::uniform(0.2));
/// // Point queries are pure: repeat queries agree.
/// assert_eq!(plan.gate_fault(7), plan.gate_fault(7));
///
/// let nominal = FaultPlan::disabled();
/// assert!(!nominal.is_enabled());
/// assert_eq!(nominal.gate_fault(7), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    stream: u64,
    rates: FaultRates,
}

impl FaultPlan {
    /// The plan for trial `trial` of a sweep rooted at `seed` — the
    /// same derivation discipline as
    /// [`SimRng::for_trial`]: the stream depends only on
    /// `(seed, trial)`.
    #[must_use]
    pub fn new(seed: u64, trial: u64, rates: FaultRates) -> Self {
        // Decorrelate from SimRng::for_trial (which XORs the raw trial
        // product) by folding the trial index through the full mixer.
        let mut sm = SplitMix64::new(seed);
        let base = sm.next_u64();
        let trial_mix = SplitMix64::new(trial.wrapping_add(base)).next_u64();
        FaultPlan {
            stream: base ^ trial_mix,
            rates,
        }
    }

    /// A plan that injects nothing (what nominal runs pass around).
    #[must_use]
    pub fn disabled() -> Self {
        FaultPlan {
            stream: 0,
            rates: FaultRates::none(),
        }
    }

    /// Whether any fault category is active. Hot paths branch on this
    /// once and skip all fault bookkeeping when it is `false`.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !self.rates.is_zero()
    }

    /// The rates this plan draws from.
    #[must_use]
    pub fn rates(&self) -> &FaultRates {
        &self.rates
    }

    /// The per-site generator: `hash(stream, domain, site)` seeds a
    /// fresh RNG, making every query order-independent.
    fn site_rng(&self, domain: u64, site: u64) -> SimRng {
        let mut sm = SplitMix64::new(self.stream ^ domain.rotate_left(17));
        let a = sm.next_u64();
        let b = SplitMix64::new(site.wrapping_add(a)).next_u64();
        SimRng::seed_from_u64(a ^ b)
    }

    /// The fault (if any) on gate/net `site`. Severity order: a
    /// stuck-at fault masks a transient, which masks a delay fault.
    #[must_use]
    pub fn gate_fault(&self, site: u64) -> Option<GateFault> {
        if !self.is_enabled() {
            return None;
        }
        let r = &self.rates;
        let mut rng = self.site_rng(DOMAIN_GATE, site);
        // Draw every category unconditionally so the stream layout is
        // fixed regardless of which rates are zero.
        let (u_stuck, stuck_val) = (rng.gen_f64(), rng.gen_bool(0.5));
        let (u_trans, at_frac) = (rng.gen_f64(), rng.gen_f64());
        let (u_delay, spread) = (rng.gen_f64(), rng.gen_f64());
        if u_stuck < r.gate_stuck {
            return Some(GateFault::StuckAt(stuck_val));
        }
        if u_trans < r.gate_transient {
            return Some(GateFault::Transient { at_frac });
        }
        if u_delay < r.gate_delay {
            // Symmetric spread around nominal, floored at 10 % so a
            // "fast" fault never makes a gate instantaneous.
            let frac = (2.0 * spread - 1.0) * r.delay_spread;
            let pct = (100.0 * (1.0 + frac)).round().max(10.0) as u32;
            return Some(GateFault::Delay { scale_pct: pct });
        }
        None
    }

    /// The fault (if any) on clock-tree buffer `site`. Dead masks
    /// degraded.
    #[must_use]
    pub fn buffer_fault(&self, site: u64) -> Option<BufferFault> {
        if !self.is_enabled() {
            return None;
        }
        let r = &self.rates;
        let mut rng = self.site_rng(DOMAIN_BUFFER, site);
        let u_dead = rng.gen_f64();
        let (u_degraded, spread) = (rng.gen_f64(), rng.gen_f64());
        if u_dead < r.buffer_dead {
            return Some(BufferFault::Dead);
        }
        if u_degraded < r.buffer_degraded {
            let extra = (spread * r.degrade_spread).max(0.05);
            return Some(BufferFault::Degraded { extra_frac: extra });
        }
        None
    }

    /// The fault (if any) on transfer attempt `attempt` over handshake
    /// link `link`. Each `(link, attempt)` pair is an independent
    /// draw, so a retried transfer can fail again — or get through.
    #[must_use]
    pub fn handshake_fault(&self, link: u64, attempt: u64) -> Option<HandshakeFault> {
        if !self.is_enabled() {
            return None;
        }
        let r = &self.rates;
        let site = link.rotate_left(32) ^ attempt;
        let mut rng = self.site_rng(DOMAIN_HANDSHAKE, site);
        let (u_drop, drop_req) = (rng.gen_f64(), rng.gen_bool(0.5));
        let (u_delay, spread) = (rng.gen_f64(), rng.gen_f64());
        if u_drop < r.handshake_drop {
            return Some(if drop_req {
                HandshakeFault::DropReq
            } else {
                HandshakeFault::DropAck
            });
        }
        if u_delay < r.handshake_delay {
            return Some(HandshakeFault::Delay {
                extra_frac: spread.max(0.05),
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_are_pure_and_order_independent() {
        let plan = FaultPlan::new(42, 3, FaultRates::uniform(0.3));
        // Forward, backward, repeated: identical answers.
        let forward: Vec<_> = (0..64).map(|s| plan.gate_fault(s)).collect();
        let backward: Vec<_> = (0..64).rev().map(|s| plan.gate_fault(s)).collect();
        for (i, f) in forward.iter().enumerate() {
            assert_eq!(*f, backward[63 - i]);
            assert_eq!(*f, plan.gate_fault(i as u64));
        }
    }

    #[test]
    fn trials_draw_independent_streams() {
        let rates = FaultRates::uniform(0.3);
        let a = FaultPlan::new(1, 0, rates);
        let b = FaultPlan::new(1, 1, rates);
        let same = (0..256)
            .filter(|&s| a.gate_fault(s) == b.gate_fault(s))
            .count();
        assert!(same < 256, "trial streams must differ");
        // And the same (seed, trial) reproduces exactly.
        let a2 = FaultPlan::new(1, 0, rates);
        for s in 0..256 {
            assert_eq!(a.gate_fault(s), a2.gate_fault(s));
            assert_eq!(a.buffer_fault(s), a2.buffer_fault(s));
            assert_eq!(a.handshake_fault(s, 0), a2.handshake_fault(s, 0));
        }
    }

    #[test]
    fn domains_are_decorrelated() {
        let plan = FaultPlan::new(7, 0, FaultRates::uniform(0.5));
        // A site that draws a gate fault need not draw a buffer fault:
        // at least one site must disagree across domains.
        let disagree = (0..128).any(|s| {
            plan.gate_fault(s).is_some() != plan.buffer_fault(s).is_some()
        });
        assert!(disagree, "gate and buffer domains look identical");
    }

    #[test]
    fn rates_scale_the_fault_density() {
        let low = FaultPlan::new(9, 0, FaultRates::uniform(0.02));
        let high = FaultPlan::new(9, 0, FaultRates::uniform(0.5));
        let count = |p: &FaultPlan| (0..512).filter(|&s| p.gate_fault(s).is_some()).count();
        assert!(count(&low) < count(&high));
        let zero = FaultPlan::new(9, 0, FaultRates::none());
        assert_eq!(count(&zero), 0);
        assert!(!zero.is_enabled());
    }

    #[test]
    fn retry_attempts_are_independent_draws() {
        let plan = FaultPlan::new(11, 0, FaultRates::uniform(0.5));
        // Over many links, some attempt-0 faults clear on attempt 1.
        let recovered = (0..256).any(|l| {
            matches!(
                plan.handshake_fault(l, 0),
                Some(HandshakeFault::DropReq | HandshakeFault::DropAck)
            ) && plan.handshake_fault(l, 1).is_none()
        });
        assert!(recovered, "retries never clear — attempts are correlated");
    }

    #[test]
    fn delay_faults_stay_physical() {
        let plan = FaultPlan::new(13, 0, FaultRates::uniform(1.0));
        for s in 0..512 {
            if let Some(GateFault::Delay { scale_pct }) = plan.gate_fault(s) {
                assert!(scale_pct >= 10, "delay fault must not be instantaneous");
            }
            if let Some(BufferFault::Degraded { extra_frac }) = plan.buffer_fault(s) {
                assert!(extra_frac > 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "fault rate")]
    fn uniform_rejects_out_of_range_rates() {
        let _ = FaultRates::uniform(1.5);
    }

    #[test]
    #[should_panic(expected = "retry timeout")]
    fn retry_policy_rejects_zero_timeout() {
        let _ = RetryPolicy::new(3, 0.0);
    }
}
