//! Non-uniform sampling on top of any [`Rng`] — the Gaussian draws
//! behind the Section VII discrepancy model and the A8 jitter study —
//! and the summary and order statistics experiments read those samples
//! with.
//!
//! The paper's analyses assume per-stage discrepancies "normally
//! distributed with a mean of zero and variance V"; `rand` used to be
//! pulled in for the uniforms underneath. Both now live here, std-only.

use crate::rng::Rng;

/// Draws one sample from a normal distribution with the given mean and
/// standard deviation, via the Box–Muller transform (cosine branch).
///
/// For bulk sampling prefer [`Gaussian`], which consumes both
/// Box–Muller branches instead of discarding the sine one.
///
/// # Panics
///
/// Panics if `std_dev` is negative.
///
/// # Examples
///
/// ```
/// use sim_runtime::{sample_normal, SimRng};
///
/// let mut rng = SimRng::seed_from_u64(1);
/// let x = sample_normal(&mut rng, 0.0, 1.0);
/// assert!(x.is_finite());
/// ```
pub fn sample_normal<R: Rng>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(std_dev >= 0.0, "standard deviation must be non-negative");
    if std_dev == 0.0 {
        return mean;
    }
    let (z, _) = box_muller_pair(rng);
    mean + std_dev * z
}

/// One Box–Muller transform: two independent standard-normal values
/// from two uniforms (`u1` shifted into `(0, 1]` so `ln` is finite).
fn box_muller_pair<R: Rng>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = 1.0 - rng.gen_f64();
    let u2: f64 = rng.gen_f64();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// A reusable Gaussian sampler that alternates the cosine and sine
/// Box–Muller branches, consuming two uniforms per two samples.
///
/// # Examples
///
/// ```
/// use sim_runtime::{Gaussian, SimRng};
///
/// let mut rng = SimRng::seed_from_u64(2);
/// let mut g = Gaussian::new(10.0, 3.0);
/// let xs: Vec<f64> = (0..4).map(|_| g.sample(&mut rng)).collect();
/// assert!(xs.iter().all(|x| x.is_finite()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    std_dev: f64,
    spare: Option<f64>,
}

impl Gaussian {
    /// Creates a sampler with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    #[must_use]
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        Gaussian {
            mean,
            std_dev,
            spare: None,
        }
    }

    /// The configured mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The configured standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Draws the next sample; every second call is served from the
    /// sine branch cached by the previous one.
    pub fn sample<R: Rng>(&mut self, rng: &mut R) -> f64 {
        if self.std_dev == 0.0 {
            return self.mean;
        }
        let z = match self.spare.take() {
            Some(z) => z,
            None => {
                let (z0, z1) = box_muller_pair(rng);
                self.spare = Some(z1);
                z0
            }
        };
        self.mean + self.std_dev * z
    }
}

/// Mean and (population) standard deviation of a sample.
///
/// Returns `(0.0, 0.0)` for an empty slice.
#[must_use]
pub fn mean_std(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Least-squares slope and intercept of `y` against `x`.
///
/// Used by experiments to classify growth rates (constant vs. linear
/// vs. √n). Returns `(slope, intercept)`.
///
/// # Panics
///
/// Panics if the slices differ in length or have fewer than two
/// points, or if all `x` are identical.
#[must_use]
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), y.len(), "x and y must have equal length");
    assert!(x.len() >= 2, "need at least two points");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|v| (v - mx).powi(2)).sum();
    assert!(sxx > 0.0, "x values must not all be identical");
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let slope = sxy / sxx;
    (slope, my - slope * mx)
}

/// `f64::total_cmp` as plain integer order: `total_order_key(a) <
/// total_order_key(b)` iff `a.total_cmp(&b)` is `Less`. Order
/// statistics of small windows (a median, trimmed extremes) can then be
/// picked with branch-free integer `min`/`max` and mapped back bit for
/// bit by [`from_total_order_key`].
///
/// # Examples
///
/// ```
/// use sim_runtime::{from_total_order_key, total_order_key};
///
/// assert!(total_order_key(-0.0) < total_order_key(0.0));
/// assert!(total_order_key(-1.5) < total_order_key(-0.5));
/// assert_eq!(from_total_order_key(total_order_key(2.5)), 2.5);
/// ```
#[inline]
#[must_use]
pub fn total_order_key(x: f64) -> i64 {
    let k = x.to_bits() as i64;
    // Negative floats order by descending magnitude: flip all but the
    // sign bit. The map is its own inverse.
    k ^ (((k >> 63) as u64) >> 1) as i64
}

/// The float whose [`total_order_key`] is `key`.
#[inline]
#[must_use]
pub fn from_total_order_key(key: i64) -> f64 {
    f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn gaussian_sampler_statistics_over_100k() {
        // The statistical sanity gate for the new sampler: mean and
        // sigma of 100k samples within tolerance, with both Box–Muller
        // branches exercised (Gaussian alternates cos / sin).
        let mut rng = SimRng::seed_from_u64(1_000);
        let mut g = Gaussian::new(5.0, 2.0);
        let samples: Vec<f64> = (0..100_000).map(|_| g.sample(&mut rng)).collect();
        let (mean, std) = mean_std(&samples);
        assert!((mean - 5.0).abs() < 0.03, "mean {mean}");
        assert!((std - 2.0).abs() < 0.03, "std {std}");
        // Two samples per uniform pair: the second comes from the
        // cached sine branch, so consecutive draws must differ.
        assert_ne!(samples[0], samples[1]);
    }

    #[test]
    fn both_branches_are_standard_normal() {
        // Split the stream into the cos-branch (even) and sin-branch
        // (odd) halves; each must separately look N(0, 1).
        let mut rng = SimRng::seed_from_u64(77);
        let mut g = Gaussian::new(0.0, 1.0);
        let samples: Vec<f64> = (0..40_000).map(|_| g.sample(&mut rng)).collect();
        let cos_branch: Vec<f64> = samples.iter().step_by(2).copied().collect();
        let sin_branch: Vec<f64> = samples.iter().skip(1).step_by(2).copied().collect();
        for (name, branch) in [("cos", cos_branch), ("sin", sin_branch)] {
            let (mean, std) = mean_std(&branch);
            assert!(mean.abs() < 0.05, "{name} mean {mean}");
            assert!((std - 1.0).abs() < 0.05, "{name} std {std}");
        }
    }

    #[test]
    fn one_shot_matches_legacy_box_muller_shape() {
        let mut rng = SimRng::seed_from_u64(42);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| sample_normal(&mut rng, 5.0, 2.0))
            .collect();
        let (mean, std) = mean_std(&samples);
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((std - 2.0).abs() < 0.1, "std {std}");
    }

    #[test]
    fn zero_std_returns_mean_without_consuming_rng() {
        let mut rng = SimRng::seed_from_u64(0);
        let before = rng.clone();
        assert_eq!(sample_normal(&mut rng, 3.5, 0.0), 3.5);
        assert_eq!(Gaussian::new(-1.0, 0.0).sample(&mut rng), -1.0);
        assert_eq!(rng, before, "degenerate draws must not advance the stream");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_std_rejected() {
        let _ = Gaussian::new(0.0, -1.0);
    }

    #[test]
    fn mean_std_of_constants() {
        let (m, s) = mean_std(&[2.0, 2.0, 2.0]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 0.0);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn linear_fit_recovers_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [3.0, 5.0, 7.0, 9.0];
        let (slope, intercept) = linear_fit(&x, &y);
        assert!((slope - 2.0).abs() < 1e-9);
        assert!((intercept - 1.0).abs() < 1e-9);
    }

    #[test]
    fn total_order_key_sorts_like_total_cmp() {
        let mut rng = SimRng::seed_from_u64(8);
        let special = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ];
        let mut draw = || {
            if rng.gen_bool(0.3) {
                special[rng.gen_range(0..special.len())]
            } else {
                f64::from_bits(rng.next_u64())
            }
        };
        for _ in 0..50_000 {
            let (a, b) = (draw(), draw());
            assert_eq!(total_order_key(a).cmp(&total_order_key(b)), a.total_cmp(&b));
            assert_eq!(from_total_order_key(total_order_key(a)).to_bits(), a.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn linear_fit_checks_lengths() {
        let _ = linear_fit(&[1.0], &[1.0, 2.0]);
    }
}
