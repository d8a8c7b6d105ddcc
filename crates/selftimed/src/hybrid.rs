//! The hybrid synchronization scheme of Section VI (Fig. 8).
//!
//! When global clocking cannot give constant rates — two-dimensional
//! arrays under the summation model, or any array when the invariance
//! assumption A8 fails — the paper proposes a hybrid: break the layout
//! into bounded-size *elements*, give each element a local clock
//! distribution node, and let the element nodes synchronize among
//! themselves with a self-timed handshake network. All synchronization
//! paths become local, so the cycle time is a constant independent of
//! array size, while the cells themselves are designed as if globally
//! clocked.
//!
//! [`HybridArray`] partitions an `n × n` mesh into `e × e` elements
//! and provides both the analytic cycle time and a wave-accurate
//! simulation (element `E` starts tick `w` once its neighbours have
//! completed tick `w − 1`).

use crate::handshake::HandshakeLink;
use sim_faults::{FaultPlan, HandshakeFault, RetryPolicy, RunOutcome};
use sim_runtime::{sample_normal, SimRng};

/// Parameters of a hybrid-synchronized array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridParams {
    /// Element edge length, in cells (`e × e` cells per element).
    pub element_size: usize,
    /// Cell compute + propagate delay δ (A5).
    pub cell_delta: f64,
    /// Per-unit-length wire delay within an element's local clock
    /// distribution.
    pub unit_wire_delay: f64,
    /// Per-unit-length delay *variation* within an element (the ε of
    /// Section III), bounding local skew by `ε · s_local`.
    pub unit_wire_variation: f64,
    /// The handshake link joining neighbouring element clock nodes.
    pub link: HandshakeLink,
}

impl HybridParams {
    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics unless sizes and delays are positive and the variation
    /// is smaller than the nominal delay.
    #[must_use]
    pub fn new(
        element_size: usize,
        cell_delta: f64,
        unit_wire_delay: f64,
        unit_wire_variation: f64,
        link: HandshakeLink,
    ) -> Self {
        assert!(element_size > 0, "element size must be positive");
        assert!(cell_delta > 0.0, "cell delta must be positive");
        assert!(unit_wire_delay > 0.0, "wire delay must be positive");
        assert!(
            (0.0..unit_wire_delay).contains(&unit_wire_variation),
            "variation must satisfy 0 <= eps < m"
        );
        HybridParams {
            element_size,
            cell_delta,
            unit_wire_delay,
            unit_wire_variation,
            link,
        }
    }
}

/// An `n × n` mesh partitioned into clocked elements synchronized by
/// handshake (Fig. 8).
///
/// # Examples
///
/// ```
/// use selftimed::handshake::{HandshakeLink, Protocol};
/// use selftimed::hybrid::{HybridArray, HybridParams};
///
/// let link = HandshakeLink::new(1.0, 0.5, Protocol::TwoPhase);
/// let params = HybridParams::new(4, 2.0, 1.0, 0.1, link);
/// let small = HybridArray::over_mesh(16, params);
/// let large = HybridArray::over_mesh(256, params);
/// // The headline property: cycle time independent of array size.
/// assert_eq!(small.cycle_time(), large.cycle_time());
/// ```
#[derive(Debug, Clone)]
pub struct HybridArray {
    n: usize,
    elements_per_side: usize,
    params: HybridParams,
}

impl HybridArray {
    /// Partitions an `n × n` mesh into `⌈n/e⌉ × ⌈n/e⌉` elements.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn over_mesh(n: usize, params: HybridParams) -> Self {
        assert!(n > 0, "array must be non-empty");
        HybridArray {
            n,
            elements_per_side: n.div_ceil(params.element_size),
            params,
        }
    }

    /// Array edge length in cells.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of elements along one side.
    #[must_use]
    pub fn elements_per_side(&self) -> usize {
        self.elements_per_side
    }

    /// Total number of elements.
    #[must_use]
    pub fn element_count(&self) -> usize {
        self.elements_per_side * self.elements_per_side
    }

    /// Worst-case local clock skew between communicating cells inside
    /// one element: the summation model applied to a local
    /// distribution whose path length is bounded by the element
    /// perimeter — a constant in `e`, never in `n`.
    #[must_use]
    pub fn local_skew(&self) -> f64 {
        let e = self.params.element_size as f64;
        self.params.unit_wire_variation * 2.0 * e
    }

    /// Time for an element's local node to distribute one clock event
    /// to its cells (local equipotential distribution over a path of
    /// at most the element diameter).
    #[must_use]
    pub fn local_distribution_time(&self) -> f64 {
        let e = self.params.element_size as f64;
        self.params.unit_wire_delay * e
    }

    /// The hybrid cycle time: handshake with the neighbouring element
    /// nodes + local clock distribution + local skew + δ.
    ///
    /// Every term depends only on the element size and link — the
    /// cycle time is **independent of `n`**, which is the theorem-level
    /// claim of Section VI.
    #[must_use]
    pub fn cycle_time(&self) -> f64 {
        self.params.link.transfer_time()
            + self.local_distribution_time()
            + self.local_skew()
            + self.params.cell_delta
    }

    /// Wave-accurate simulation: element `E` starts tick `w` once all
    /// its grid neighbours completed tick `w − 1` (the handshake), and
    /// each tick locally costs [`HybridArray::cycle_time`] plus a
    /// Gaussian jitter (`jitter_std`, clipped at zero).
    ///
    /// Returns the measured steady-state tick period. With zero jitter
    /// this equals `cycle_time()` exactly, for every `n`.
    ///
    /// # Panics
    ///
    /// Panics if `waves < 4` or `jitter_std < 0`.
    #[must_use]
    pub fn simulate_period(&self, waves: usize, jitter_std: f64, seed: u64) -> f64 {
        assert!(jitter_std >= 0.0, "jitter must be non-negative");
        let base = self.cycle_time();
        let mut rng = SimRng::seed_from_u64(seed);
        self.wave_period(waves, |_, _, ready| {
            let tick = (base + sample_normal(&mut rng, 0.0, jitter_std)).max(0.0);
            Some(ready + tick)
        })
        .expect("a jittered run never deadlocks")
    }

    /// Wave-accurate simulation over lossy inter-element handshake
    /// wires: each element's per-wave rendezvous with its neighbours
    /// may be dropped (costing [`RetryPolicy::timeout`] per re-send)
    /// or slowed by the fault plan. An element that exhausts its
    /// retries stalls the whole array — returned as a structured
    /// [`RunOutcome::Deadlock`] with an infinite period, never a hang.
    ///
    /// Jitter is omitted so the run is a pure function of
    /// `(plan, waves, policy)` — byte-identical across thread counts.
    ///
    /// # Panics
    ///
    /// Panics if `waves < 4`.
    #[must_use]
    pub fn simulate_period_faulty(
        &self,
        waves: usize,
        plan: &FaultPlan,
        policy: RetryPolicy,
    ) -> (RunOutcome, f64) {
        let base = self.cycle_time();
        let attempts_per_wave = u64::from(policy.max_retries) + 1;
        let period = self.wave_period(waves, |w, i, ready| {
            // The element's rendezvous with its neighbours for this
            // wave, over lossy wires.
            let mut penalty = 0.0;
            for attempt in 0..attempts_per_wave {
                let key = (w as u64) * attempts_per_wave + attempt;
                match plan.handshake_fault(i as u64, key) {
                    Some(HandshakeFault::DropReq | HandshakeFault::DropAck) => {
                        penalty += policy.timeout;
                    }
                    Some(HandshakeFault::Delay { extra_frac }) => {
                        penalty += extra_frac * self.params.link.transfer_time();
                        return Some(ready + base + penalty);
                    }
                    None => return Some(ready + base + penalty),
                }
            }
            None
        });
        match period {
            Some(period) => (RunOutcome::Ok, period),
            None => (RunOutcome::Deadlock, f64::INFINITY),
        }
    }

    /// The neighbour-max wave recurrence behind both simulations:
    /// element `i` may start wave `w` once it and its grid neighbours
    /// finished wave `w − 1` (at `ready`), and finishes it at
    /// `finish(w, i, ready)`; elements are visited in row-major order.
    /// Returns the steady-state period over the second half of the
    /// waves, or `None` as soon as `finish` reports a deadlock.
    fn wave_period(
        &self,
        waves: usize,
        mut finish: impl FnMut(usize, usize, f64) -> Option<f64>,
    ) -> Option<f64> {
        assert!(waves >= 4, "need a few waves to measure steady state");
        let side = self.elements_per_side;
        let mut prev = vec![0.0f64; side * side];
        let mut cur = vec![0.0f64; side * side];
        let mut completions = Vec::with_capacity(waves);
        for w in 0..waves {
            for r in 0..side {
                for c in 0..side {
                    let i = r * side + c;
                    let mut ready = prev[i];
                    if r > 0 {
                        ready = ready.max(prev[i - side]);
                    }
                    if r + 1 < side {
                        ready = ready.max(prev[i + side]);
                    }
                    if c > 0 {
                        ready = ready.max(prev[i - 1]);
                    }
                    if c + 1 < side {
                        ready = ready.max(prev[i + 1]);
                    }
                    cur[i] = finish(w, i, ready)?;
                }
            }
            completions.push(cur.iter().copied().fold(0.0, f64::max));
            std::mem::swap(&mut prev, &mut cur);
        }
        let half = waves / 2;
        Some((completions[waves - 1] - completions[half - 1]) / (waves - half) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handshake::Protocol;

    fn params(e: usize) -> HybridParams {
        HybridParams::new(
            e,
            2.0,
            1.0,
            0.1,
            HandshakeLink::new(1.0, 0.5, Protocol::TwoPhase),
        )
    }

    #[test]
    fn cycle_time_independent_of_array_size() {
        let p = params(4);
        let cycles: Vec<f64> = [8usize, 32, 128, 512]
            .iter()
            .map(|&n| HybridArray::over_mesh(n, p).cycle_time())
            .collect();
        for w in cycles.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }

    #[test]
    fn cycle_time_grows_with_element_size() {
        let small = HybridArray::over_mesh(64, params(2)).cycle_time();
        let big = HybridArray::over_mesh(64, params(16)).cycle_time();
        assert!(big > small);
    }

    #[test]
    fn element_grid_covers_array() {
        let h = HybridArray::over_mesh(20, params(6));
        assert_eq!(h.elements_per_side(), 4);
        assert_eq!(h.element_count(), 16);
    }

    #[test]
    fn simulated_period_matches_analytic_without_jitter() {
        for n in [8usize, 64] {
            let h = HybridArray::over_mesh(n, params(4));
            let measured = h.simulate_period(50, 0.0, 1);
            assert!(
                (measured - h.cycle_time()).abs() < 1e-9,
                "n={n}: {measured} vs {}",
                h.cycle_time()
            );
        }
    }

    #[test]
    fn simulated_period_stays_bounded_under_jitter() {
        // Jitter couples neighbouring elements, raising the period by
        // a bounded constant — not by anything that grows with n.
        let p = params(4);
        let small = HybridArray::over_mesh(16, p).simulate_period(200, 0.3, 2);
        let large = HybridArray::over_mesh(128, p).simulate_period(200, 0.3, 2);
        let base = HybridArray::over_mesh(16, p).cycle_time();
        assert!(small >= base - 1e-9);
        assert!(large >= base - 1e-9);
        // The large array pays a little more coupling penalty, but the
        // ratio stays near 1 (bounded LPP constant, not Θ(n) growth).
        assert!(large / small < 1.25, "{large} vs {small}");
    }

    #[test]
    fn faulty_period_degrades_gracefully_and_deterministically() {
        use sim_faults::{FaultPlan, FaultRates, RetryPolicy, RunOutcome};
        let h = HybridArray::over_mesh(16, params(4));
        let clean = h.simulate_period(40, 0.0, 1);
        // Disabled plan reproduces the clean run.
        let (outcome, period) =
            h.simulate_period_faulty(40, &FaultPlan::disabled(), RetryPolicy::new(3, 10.0));
        assert_eq!(outcome, RunOutcome::Ok);
        assert!((period - clean).abs() < 1e-9);
        // Moderate drops recover via retries but cost throughput.
        let rates = FaultRates {
            handshake_drop: 0.2,
            ..FaultRates::none()
        };
        let plan = FaultPlan::new(7, 0, rates);
        let policy = RetryPolicy::new(8, 10.0);
        let (outcome, degraded) = h.simulate_period_faulty(40, &plan, policy);
        assert_eq!(outcome, RunOutcome::Ok);
        assert!(degraded > clean, "{degraded} vs {clean}");
        assert_eq!(
            h.simulate_period_faulty(40, &plan, policy),
            (outcome, degraded)
        );
        // Zero retries under certain drops: a classified deadlock.
        let certain = FaultRates {
            handshake_drop: 1.0,
            ..FaultRates::none()
        };
        let (outcome, period) = h.simulate_period_faulty(
            40,
            &FaultPlan::new(7, 0, certain),
            RetryPolicy::new(0, 10.0),
        );
        assert_eq!(outcome, RunOutcome::Deadlock);
        assert!(period.is_infinite());
    }

    #[test]
    fn local_skew_bounded_by_element_perimeter() {
        let h = HybridArray::over_mesh(100, params(5));
        assert!((h.local_skew() - 0.1 * 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "element size")]
    fn rejects_zero_element() {
        let _ = HybridParams::new(
            0,
            1.0,
            1.0,
            0.1,
            HandshakeLink::new(1.0, 0.5, Protocol::TwoPhase),
        );
    }
}
