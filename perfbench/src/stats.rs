//! Quantiles from raw samples by nearest rank.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it; otherwise the summary falls back to the maximum and
//! says so. Every figure carries its sample count.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorted raw samples.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    sorted: Vec<f64>,
}

/// One reported figure: which statistic it is, its value, and `n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure {
    /// The percentile reported, or `None` when the sample count only
    /// supports the maximum.
    pub percentile: Option<f64>,
    /// The measured sample at that rank (or the maximum).
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

impl Figure {
    /// `p50.0 (n=200)`-style label for the human-readable report.
    pub fn label(&self) -> String {
        match self.percentile {
            Some(p) => format!("p{p:.1} (n={})", self.n),
            None => format!("max (n={})", self.n),
        }
    }

    /// `12.345 ms at p96.7 (n=300)`-style description.
    pub fn describe(&self, unit: &str) -> String {
        format!("{:.3} {unit} at {}", self.value, self.label())
    }
}

impl Summary {
    /// Summarises `samples` (order irrelevant).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Summary { sorted: samples }
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The nearest-rank `p`-th percentile (`0 < p < 100`): the sample
    /// at 1-based rank `ceil(p/100 · n)`, when at least [`MIN_BEYOND`]
    /// samples lie beyond that rank.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.n();
        if n == 0 || !(p > 0.0 && p < 100.0) {
            return None;
        }
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        (n - rank >= MIN_BEYOND).then(|| self.sorted[rank - 1])
    }

    /// The median, or the maximum when `n` cannot support it.
    pub fn median(&self) -> Figure {
        self.percentile_or_max(50.0)
    }

    /// The `p`-th percentile, or the maximum when `n` cannot support it.
    pub fn percentile_or_max(&self, p: f64) -> Figure {
        match self.percentile(p) {
            Some(value) => Figure {
                percentile: Some(p),
                value,
                n: self.n(),
            },
            None => self.max_figure(),
        }
    }

    /// The highest percentile with at least [`MIN_BEYOND`] samples
    /// beyond it: rank `n - 10`, stated as percentile `100·rank/n`.
    /// Falls back to the maximum when `n <= 10`.
    pub fn tail(&self) -> Figure {
        let n = self.n();
        if n <= MIN_BEYOND {
            return self.max_figure();
        }
        let rank = n - MIN_BEYOND;
        Figure {
            percentile: Some(100.0 * rank as f64 / n as f64),
            value: self.sorted[rank - 1],
            n,
        }
    }

    fn max_figure(&self) -> Figure {
        Figure {
            percentile: None,
            value: self.max().unwrap_or(0.0),
            n: self.n(),
        }
    }
}

/// The middle of a few values (the lower middle of an even count).
pub fn median_of(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
        .get(sorted.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Summary {
        // Reversed so the constructor's sort is exercised.
        Summary::new((1..=n).rev().map(|v| v as f64).collect())
    }

    #[test]
    fn nearest_rank_picks_a_measured_sample() {
        let s = one_to(100);
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(90.0), Some(90.0));
        assert_eq!(s.percentile(90.5), None, "rank 91 leaves 9 beyond");
        assert_eq!(s.percentile(0.5), Some(1.0));
        // Never interpolated: p50 of an even count is a sample.
        let s = Summary::new(vec![
            10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0,
            140.0, 150.0, 160.0, 170.0, 180.0, 190.0, 200.0,
        ]);
        assert_eq!(s.percentile(50.0), Some(100.0));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let s = one_to(1000);
        assert_eq!(s.percentile(99.0), Some(990.0));
        assert_eq!(s.percentile(99.1), None);
        assert_eq!(one_to(999).percentile(99.0), None);
        // Median needs n >= 20.
        assert_eq!(one_to(19).percentile(50.0), None);
        assert_eq!(one_to(20).percentile(50.0), Some(10.0));
    }

    #[test]
    fn unsupported_figures_fall_back_to_max_with_n() {
        let f = one_to(15).median();
        assert_eq!(
            f,
            Figure {
                percentile: None,
                value: 15.0,
                n: 15
            }
        );
        assert_eq!(f.label(), "max (n=15)");
        let empty = Summary::new(Vec::new());
        assert_eq!(empty.tail().n, 0);
        assert_eq!(empty.percentile(50.0), None);
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        let f = one_to(200).tail();
        assert_eq!(f.value, 190.0);
        assert_eq!(f.percentile, Some(95.0));
        assert_eq!(f.n, 200);
        // The stated percentile is itself supported.
        let s = one_to(200);
        assert_eq!(s.percentile(95.0), Some(190.0));
        assert_eq!(one_to(10).tail().percentile, None);
        assert_eq!(
            one_to(11).tail(),
            Figure {
                percentile: Some(100.0 / 11.0),
                value: 1.0,
                n: 11
            }
        );
    }

    #[test]
    fn median_of_takes_the_middle() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median_of(&[]), 0.0);
    }
}
