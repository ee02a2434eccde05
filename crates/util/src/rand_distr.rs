//! Continuous distributions over [`crate::rand::Rng`], API-compatible with
//! the subset of the `rand_distr` crate this workspace used.

use crate::rand::Rng;

/// Types that can draw samples of `T` from a random source.
pub trait Distribution<T> {
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

/// Error constructing a distribution from invalid parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistributionError {
    reason: &'static str,
}

impl std::fmt::Display for DistributionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.reason)
    }
}

impl std::error::Error for DistributionError {}

/// The normal (Gaussian) distribution `N(mean, std_dev²)`, sampled with
/// the Box–Muller transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates `N(mean, std_dev²)`.
    ///
    /// # Errors
    ///
    /// Returns an error when either parameter is non-finite or `std_dev`
    /// is negative (`std_dev = 0` is allowed and degenerates to `mean`).
    pub fn new(mean: f64, std_dev: f64) -> Result<Normal, DistributionError> {
        if !mean.is_finite() || !std_dev.is_finite() {
            return Err(DistributionError {
                reason: "normal parameters must be finite",
            });
        }
        if std_dev < 0.0 {
            return Err(DistributionError {
                reason: "standard deviation must be non-negative",
            });
        }
        Ok(Normal { mean, std_dev })
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller: u1 is kept away from 0 so ln stays finite.
        let u1 = open_unit(rng);
        let u2 = rng.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mean + self.std_dev * z
    }
}

/// A uniform `f64` in `(0, 1]` with 53 bits of precision, safe to `ln`.
fn open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The continuous uniform distribution over an interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    low: f64,
    span: f64,
}

impl Uniform {
    /// Uniform over the half-open interval `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics when `low >= high`.
    pub fn new(low: f64, high: f64) -> Uniform {
        assert!(
            low < high,
            "uniform requires low < high, got [{low}, {high})"
        );
        Uniform {
            low,
            span: high - low,
        }
    }

    /// Uniform over the closed interval `[low, high]`.
    ///
    /// # Panics
    ///
    /// Panics when `low > high`.
    pub fn new_inclusive(low: f64, high: f64) -> Uniform {
        assert!(
            low <= high,
            "uniform requires low <= high, got [{low}, {high}]"
        );
        // With 53-bit samples in [0, 1) the closed upper bound is reached
        // only up to rounding; that matches rand_distr's float behaviour.
        Uniform {
            low,
            span: high - low,
        }
    }
}

impl Distribution<f64> for Uniform {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.low + self.span * rng.next_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand::rngs::StdRng;
    use crate::rand::SeedableRng;

    #[test]
    fn normal_moments_match_parameters() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Normal::new(3.0, 2.0).unwrap();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn zero_std_collapses_to_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = Normal::new(1.5, 0.0).unwrap();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 1.5);
        }
    }

    #[test]
    fn invalid_normal_parameters_are_rejected() {
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn uniform_respects_bounds_and_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = Uniform::new_inclusive(-2.0, 2.0);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = d.sample(&mut rng);
            assert!((-2.0..=2.0).contains(&v));
            sum += v;
        }
        assert!((sum / n as f64).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "uniform requires low < high")]
    fn empty_uniform_panics() {
        let _ = Uniform::new(1.0, 1.0);
    }

    #[test]
    fn normal_is_deterministic_per_seed() {
        let d = Normal::new(0.0, 1.0).unwrap();
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let va: Vec<f64> = (0..16).map(|_| d.sample(&mut a)).collect();
        let vb: Vec<f64> = (0..16).map(|_| d.sample(&mut b)).collect();
        assert_eq!(va, vb);
    }
}
