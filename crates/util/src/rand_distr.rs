//! Continuous distributions over [`crate::rand::Rng`], API-compatible with
//! the subset of the `rand_distr` crate this workspace used.

use std::sync::OnceLock;

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

/// The standard normal distribution `N(0, 1)`, sampled with the
/// ziggurat method of Marsaglia & Tsang (2000), "The Ziggurat Method for
/// Generating Random Variables", J. Stat. Softw. 5(8).
///
/// The density's right half is covered by 128 stacked strips
/// of equal area. A draw picks a strip and a point across its width:
/// about 97 % of the time the point lies inside the strip's core
/// rectangle and is returned after one 64-bit draw and one multiply.
/// Otherwise it lies in the strip's wedge and is accepted or rejected
/// against the exact density, or — in the base strip — it falls past
/// `R ≈ 3.4426` and is drawn exactly from the tail (Marsaglia, 1964).
/// The samples are therefore exactly normal; only the work per sample
/// is approximate. Unlike [`Normal`]'s Box–Muller, the common path
/// needs no `ln`, `sqrt` or `cos`.
#[derive(Debug, Clone, Copy)]
pub struct StandardNormal;

/// Number of equal-area strips in the ziggurat.
const ZIG_LAYERS: usize = 128;

/// Right edge of the ziggurat's base strip for 128 strips;
/// samples with `|z| ≥ ZIG_NORM_R` come only from the exact tail branch.
const ZIG_NORM_R: f64 = 3.442_619_855_899;

/// Common area of every strip under the unnormalised density
/// `exp(-x²/2)` (the base strip's area includes the tail beyond
/// [`ZIG_NORM_R`]).
const ZIG_NORM_V: f64 = 9.912_563_035_262_17e-3;

/// Strip edges `x[i]` (decreasing from the base strip's virtual width
/// `V / f(R)` through `x[1] = R` to `x[128] = 0`) and the density at
/// each edge, `f[i] = exp(-x[i]²/2)`.
struct ZigTables {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
}

fn unnormalised_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

fn zig_tables() -> &'static ZigTables {
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; ZIG_LAYERS + 1];
        x[0] = ZIG_NORM_V / unnormalised_pdf(ZIG_NORM_R);
        x[1] = ZIG_NORM_R;
        // Strip i spans heights f(x[i])..f(x[i+1]) with area
        // x[i]·(f(x[i+1]) − f(x[i])) = V; solve for the next edge. The
        // top strip's apex x[128] stays 0.
        for i in 1..ZIG_LAYERS - 1 {
            x[i + 1] = (-2.0 * (ZIG_NORM_V / x[i] + unnormalised_pdf(x[i])).ln()).sqrt();
        }
        ZigTables {
            x,
            f: x.map(unnormalised_pdf),
        }
    })
}

impl Distribution<f64> for StandardNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let t = zig_tables();
        let (i, u, x) = zig_point(t, rng.next_u64());
        if x.abs() < t.x[i + 1] {
            return x;
        }
        zig_edge(t, rng, i, u, x)
    }
}

/// Splits one 64-bit draw into a strip index (the low 7 bits) and a
/// signed position `u` in `[-1, 1)` (the top 53 bits, disjoint from
/// them), and places the point `x = u·x[i]` across that strip.
fn zig_point(t: &ZigTables, bits: u64) -> (usize, f64, f64) {
    let i = (bits as usize) & (ZIG_LAYERS - 1);
    let u = (bits >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0;
    (i, u, u * t.x[i])
}

/// The ≈ 3 % of draws that miss their strip's core rectangle: the
/// base strip's overhang goes to the exact tail, a wedge point is tested
/// against the density itself, and a rejected point is redrawn.
#[cold]
fn zig_edge<R: Rng + ?Sized>(
    t: &ZigTables,
    rng: &mut R,
    mut i: usize,
    mut u: f64,
    mut x: f64,
) -> f64 {
    loop {
        if i == 0 {
            return normal_tail(rng, u < 0.0);
        }
        if t.f[i] + (t.f[i + 1] - t.f[i]) * rng.next_f64() < unnormalised_pdf(x) {
            return x;
        }
        (i, u, x) = zig_point(t, rng.next_u64());
        if x.abs() < t.x[i + 1] {
            return x;
        }
    }
}

/// Exact sample from the normal tail `|z| ≥ ZIG_NORM_R` (Marsaglia,
/// 1964): `R + e₁/R` with `e₁, e₂` exponential, accepted when
/// `2e₂ > (e₁/R)²`.
fn normal_tail<R: Rng + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        let x = -open_unit(rng).ln() / ZIG_NORM_R;
        let y = -open_unit(rng).ln();
        if 2.0 * y > x * x {
            let z = ZIG_NORM_R + x;
            return if negative { -z } else { z };
        }
    }
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

    /// `n` standard-normal draws from a fixed seed.
    fn zig_draws(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| StandardNormal.sample(&mut rng)).collect()
    }

    /// Standard normal CDF through Abramowitz & Stegun 7.1.26
    /// (|error| ≤ 1.5e-7, far below every bound tested here).
    fn phi(z: f64) -> f64 {
        let x = z.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.327_591_1 * x);
        let poly = t
            * (0.254_829_592
                + t * (-0.284_496_736
                    + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
        let erfc = poly * (-x * x).exp();
        if z >= 0.0 {
            1.0 - 0.5 * erfc
        } else {
            0.5 * erfc
        }
    }

    const ZIG_N: usize = 1_000_000;

    #[test]
    fn standard_normal_moments_match() {
        let z = zig_draws(0x5a16, ZIG_N);
        let n = ZIG_N as f64;
        let mean = z.iter().sum::<f64>() / n;
        let m2 = z.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        let m4 = z.iter().map(|v| (v - mean).powi(4)).sum::<f64>() / n;
        let kurtosis = m4 / (m2 * m2);
        // Standard errors at n = 10⁶: mean 1e-3, variance 1.4e-3,
        // kurtosis 4.9e-3; every bound is about five of them.
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((m2 - 1.0).abs() < 0.007, "variance {m2}");
        assert!((kurtosis - 3.0).abs() < 0.025, "kurtosis {kurtosis}");
    }

    #[test]
    fn standard_normal_passes_kolmogorov_smirnov() {
        let mut z = zig_draws(0x6b53, ZIG_N);
        z.sort_by(f64::total_cmp);
        let n = ZIG_N as f64;
        let d = z
            .iter()
            .enumerate()
            .map(|(k, &v)| {
                let cdf = phi(v);
                (cdf - k as f64 / n).max((k + 1) as f64 / n - cdf)
            })
            .fold(0.0, f64::max);
        // The 1 % critical value of the one-sample KS statistic.
        let critical = 1.628 / n.sqrt();
        assert!(d < critical, "KS statistic {d} ≥ {critical}");
    }

    #[test]
    fn standard_normal_tail_share_matches_and_tail_branch_is_taken() {
        let z = zig_draws(0x7a11, ZIG_N);
        // Share of draws beyond `edge`, against 2(1 − Φ(edge)) within
        // five binomial standard deviations.
        let check_share = |edge: f64| {
            let beyond = z.iter().filter(|v| v.abs() >= edge).count();
            let p = 2.0 * (1.0 - phi(edge));
            let expected = p * ZIG_N as f64;
            let sd = (expected * (1.0 - p)).sqrt();
            assert!(
                (beyond as f64 - expected).abs() < 5.0 * sd,
                "{beyond} draws beyond {edge}, expected {expected:.0} ± {sd:.0}"
            );
            beyond
        };
        assert!((2.0 * (1.0 - phi(ZIG_NORM_R)) - 5.8e-4).abs() < 1e-5);
        check_share(ZIG_NORM_R);
        // Core and wedge draws satisfy |z| < x[0] (the base strip's
        // virtual width, ≈ 3.71): only the exact tail branch reaches
        // beyond it, so these draws prove it is taken and shaped right.
        let edge = zig_tables().x[0];
        assert!(check_share(edge) > 0, "the tail branch was never taken");
        assert!(z.iter().any(|&v| v >= edge) && z.iter().any(|&v| v <= -edge));
    }

    #[test]
    fn ziggurat_strips_close_at_the_apex() {
        // The canonical (R, V) pair makes the recurrence land on the
        // density's peak: the top strip x[127]·(1 − f(x[127])) has area V.
        let t = zig_tables();
        let top = t.x[ZIG_LAYERS - 1] * (1.0 - t.f[ZIG_LAYERS - 1]);
        assert!((top - ZIG_NORM_V).abs() < 1e-9, "top strip area {top}");
        assert!(t.x.windows(2).all(|w| w[0] > w[1]), "edges not decreasing");
        assert_eq!(t.x[ZIG_LAYERS], 0.0);
        assert_eq!(t.f[ZIG_LAYERS], 1.0);
    }

    #[test]
    fn standard_normal_is_deterministic_per_seed() {
        assert_eq!(zig_draws(11, 4096), zig_draws(11, 4096));
        assert_ne!(zig_draws(11, 64), zig_draws(12, 64));
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
