//! Simulation time: integer picoseconds.
//!
//! Using an integer time base keeps the simulator deterministic —
//! event ordering never depends on floating-point rounding — and
//! picosecond resolution is fine enough for the nanosecond-scale gate
//! delays of the Section VII experiment.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A point in (or duration of) simulation time, in picoseconds.
///
/// # Examples
///
/// ```
/// use netlist::time::SimTime;
///
/// let t = SimTime::from_ns(2) + SimTime::from_ps(500);
/// assert_eq!(t.as_ps(), 2500);
/// assert_eq!(format!("{t}"), "2.500ns");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from picoseconds.
    #[must_use]
    pub fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics on overflow (more than ~213 days of simulated time).
    #[must_use]
    pub fn from_ns(ns: u64) -> Self {
        SimTime(ns.checked_mul(1_000).expect("SimTime overflow"))
    }

    /// Creates a time from microseconds.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    #[must_use]
    pub fn from_us(us: u64) -> Self {
        SimTime(us.checked_mul(1_000_000).expect("SimTime overflow"))
    }

    /// The raw picosecond count.
    #[must_use]
    pub fn as_ps(self) -> u64 {
        self.0
    }

    /// The time in nanoseconds, truncated.
    #[must_use]
    pub fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// The time as a floating-point nanosecond count.
    #[must_use]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition: clamps to the representable maximum
    /// instead of panicking. Prefer [`SimTime::checked_add`] on event
    /// paths — a saturated time silently freezes the clock at the
    /// horizon, which is only safe for limit/budget computations.
    #[must_use]
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Checked addition with a structured error.
    ///
    /// Multi-million-event runs accumulate tick additions (`now +
    /// delay`, `start + period * k`); this is the overflow guard the
    /// engines' schedule paths use so a wrapped timestamp can never
    /// silently reorder the event queue.
    ///
    /// # Errors
    ///
    /// Returns [`TimeOverflowError`] naming both operands when the sum
    /// exceeds `u64::MAX` picoseconds.
    pub fn checked_add(self, rhs: SimTime) -> Result<SimTime, TimeOverflowError> {
        self.0
            .checked_add(rhs.0)
            .map(SimTime)
            .ok_or(TimeOverflowError {
                op: TimeOp::Add,
                lhs_ps: self.0,
                rhs: rhs.0,
            })
    }

    /// Checked multiplication by a scalar with a structured error.
    ///
    /// # Errors
    ///
    /// Returns [`TimeOverflowError`] when the product exceeds
    /// `u64::MAX` picoseconds.
    pub fn checked_mul(self, rhs: u64) -> Result<SimTime, TimeOverflowError> {
        self.0
            .checked_mul(rhs)
            .map(SimTime)
            .ok_or(TimeOverflowError {
                op: TimeOp::Mul,
                lhs_ps: self.0,
                rhs,
            })
    }

    /// Absolute difference between two times.
    #[must_use]
    pub fn abs_diff(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.abs_diff(rhs.0))
    }
}

/// The arithmetic operation a [`TimeOverflowError`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeOp {
    /// `time + duration`.
    Add,
    /// `duration × scalar`.
    Mul,
}

/// Structured error for a tick addition or multiplication that would
/// exceed the representable simulation horizon (~213 days at 1 ps
/// resolution). Produced by [`SimTime::checked_add`] and
/// [`SimTime::checked_mul`]; the panicking operator impls and the
/// engine's scheduling paths render it as their panic message, so an
/// overflow on a multi-million-event run diagnoses itself instead of
/// wrapping around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeOverflowError {
    /// Which operation overflowed.
    pub op: TimeOp,
    /// Left operand, in picoseconds.
    pub lhs_ps: u64,
    /// Right operand: picoseconds for an addition, the scalar for a
    /// multiplication.
    pub rhs: u64,
}

impl fmt::Display for TimeOverflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lhs, rhs) = (self.lhs_ps, self.rhs);
        match self.op {
            TimeOp::Add => write!(f, "SimTime overflow in addition: {lhs} ps + {rhs} ps")?,
            TimeOp::Mul => write!(f, "SimTime overflow in multiplication: {lhs} ps × {rhs}")?,
        }
        f.write_str(" exceeds the u64 picosecond horizon")
    }
}

impl std::error::Error for TimeOverflowError {}

impl Add for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics with the [`TimeOverflowError`] message on overflow; use
    /// [`SimTime::checked_add`] to handle it structurally.
    fn add(self, rhs: SimTime) -> SimTime {
        match self.checked_add(rhs) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics if `rhs > self`; use [`SimTime::saturating_sub`] when
    /// underflow is expected.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics with the [`TimeOverflowError`] message on overflow; use
    /// [`SimTime::checked_mul`] to handle it structurally.
    fn mul(self, rhs: u64) -> SimTime {
        match self.checked_mul(rhs) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 && self.0.is_multiple_of(1_000) {
            write!(f, "{}.{:03}us", self.0 / 1_000_000, (self.0 / 1_000) % 1_000)
        } else if self.0 >= 1_000 {
            write!(f, "{}.{:03}ns", self.0 / 1_000, self.0 % 1_000)
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_ns(3).as_ps(), 3_000);
        assert_eq!(SimTime::from_us(2).as_ns(), 2_000);
        assert_eq!(SimTime::from_ps(1500).as_ns(), 1);
        assert_eq!(SimTime::from_ps(1500).as_ns_f64(), 1.5);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ps(100);
        let b = SimTime::from_ps(30);
        assert_eq!((a + b).as_ps(), 130);
        assert_eq!((a - b).as_ps(), 70);
        assert_eq!((a * 3).as_ps(), 300);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.abs_diff(b).as_ps(), 70);
        assert_eq!(b.abs_diff(a).as_ps(), 70);
        let mut c = a;
        c += b;
        assert_eq!(c.as_ps(), 130);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_ps(1) - SimTime::from_ps(2);
    }

    #[test]
    fn checked_add_reports_structured_overflow() {
        let near_max = SimTime::from_ps(u64::MAX - 10);
        assert_eq!(
            near_max.checked_add(SimTime::from_ps(5)),
            Ok(SimTime::from_ps(u64::MAX - 5))
        );
        let err = near_max
            .checked_add(SimTime::from_ps(100))
            .expect_err("must overflow");
        assert_eq!(err.lhs_ps, u64::MAX - 10);
        assert_eq!(err.rhs, 100);
        assert_eq!(
            err.to_string(),
            "SimTime overflow in addition: 18446744073709551605 ps + 100 ps \
             exceeds the u64 picosecond horizon"
        );
    }

    #[test]
    fn checked_mul_reports_structured_overflow() {
        assert_eq!(
            SimTime::from_ps(7).checked_mul(3),
            Ok(SimTime::from_ps(21))
        );
        let err = SimTime::from_ps(u64::MAX / 2)
            .checked_mul(3)
            .expect_err("must overflow");
        assert_eq!(err.op, TimeOp::Mul);
        assert_eq!(err.rhs, 3);
        assert_eq!(
            err.to_string(),
            "SimTime overflow in multiplication: 9223372036854775807 ps × 3 \
             exceeds the u64 picosecond horizon"
        );
    }

    #[test]
    fn saturating_add_clamps() {
        let t = SimTime::from_ps(u64::MAX - 1).saturating_add(SimTime::from_ps(100));
        assert_eq!(t.as_ps(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "SimTime overflow")]
    fn addition_overflow_panics_with_structured_message() {
        let _ = SimTime::from_ps(u64::MAX) + SimTime::from_ps(1);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_ps(42)), "42ps");
        assert_eq!(format!("{}", SimTime::from_ps(2500)), "2.500ns");
        assert_eq!(format!("{}", SimTime::from_us(34)), "34.000us");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ns(1) < SimTime::from_ns(2));
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }
}
