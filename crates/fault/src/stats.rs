//! Accuracy-distribution statistics (box-plot-ready) and the confidence
//! intervals behind adaptive (sequential-sampling) campaigns.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Five-number summary plus mean and standard deviation of a sample of
/// accuracies — everything the paper's box plots (Figs. 7b/c, 8b/c) display.
///
/// # Example
///
/// ```
/// use ftclip_fault::Summary;
///
/// let s = Summary::from_samples(&[0.1, 0.2, 0.3, 0.4, 0.5]).unwrap();
/// assert!((s.median - 0.3).abs() < 1e-12);
/// assert!((s.mean - 0.3).abs() < 1e-12);
/// assert_eq!(s.min, 0.1);
/// assert_eq!(s.max, 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for a single sample).
    pub std: f64,
    /// Minimum (the "worst case" the paper highlights in §V-B).
    pub min: f64,
    /// Lower quartile (25th percentile, linear interpolation).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile (75th percentile, linear interpolation).
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes the summary of a non-empty sample.
    ///
    /// Returns `None` for an empty slice or one containing NaN.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() || samples.iter().any(|x| x.is_nan()) {
            return None;
        }
        let n = samples.len();
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let std = if n > 1 {
            (sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64).sqrt()
        } else {
            0.0
        };
        Some(Summary {
            n,
            mean,
            std,
            min: sorted[0],
            q1: percentile(&sorted, 0.25),
            median: percentile(&sorted, 0.5),
            q3: percentile(&sorted, 0.75),
            max: sorted[n - 1],
        })
    }

    /// Interquartile range (`q3 − q1`).
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.4} std={:.4} min={:.4} q1={:.4} med={:.4} q3={:.4} max={:.4}",
            self.n, self.mean, self.std, self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

/// A two-sided confidence interval over a sample mean.
///
/// Produced by [`wilson_interval`] and [`bootstrap_interval`]; the adaptive
/// campaign executor stops sampling a rate once [`half_width`] drops below
/// the stopping rule's target.
///
/// [`half_width`]: ConfidenceInterval::half_width
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl ConfidenceInterval {
    /// Half of the interval's width — the "±ε" the stopping rule compares
    /// against.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }

    /// The interval midpoint.
    pub fn center(&self) -> f64 {
        (self.hi + self.lo) / 2.0
    }
}

/// Wilson score interval for a proportion, treating the sample mean of
/// `samples` (values in `[0, 1]`) as an observed success fraction over
/// `samples.len()` trials at critical value `z` (1.96 ≈ 95%).
///
/// This is the binomial view of campaign accuracy — appropriate when each
/// repetition is scored as a pass/fail trial. Unlike the normal
/// approximation it never collapses to zero width at p̂ ∈ {0, 1} and stays
/// inside `[0, 1]` by construction.
///
/// Returns `None` for an empty sample, any NaN sample, or a non-finite `z`.
pub fn wilson_interval(samples: &[f64], z: f64) -> Option<ConfidenceInterval> {
    if samples.is_empty() || samples.iter().any(|x| x.is_nan()) || !z.is_finite() {
        return None;
    }
    let n = samples.len() as f64;
    let p = (samples.iter().sum::<f64>() / n).clamp(0.0, 1.0);
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    Some(ConfidenceInterval { lo: (center - half).max(0.0), hi: (center + half).min(1.0) })
}

/// Percentile-bootstrap confidence interval of the sample mean:
/// `resamples` means of with-replacement resamples, bracketed at the
/// `confidence` level (e.g. `0.95`).
///
/// The resampler is a deterministic function of `(samples, resamples,
/// confidence, seed)` — the same inputs always yield the same interval, on
/// every platform and at every thread count, which is what lets adaptive
/// campaigns make identical stopping decisions at any thread count. A zero-variance sample yields a zero-width interval.
///
/// Returns `None` for an empty sample, any NaN sample, `resamples == 0`,
/// or `confidence` outside `(0, 1)`.
pub fn bootstrap_interval(
    samples: &[f64],
    resamples: usize,
    confidence: f64,
    seed: u64,
) -> Option<ConfidenceInterval> {
    if samples.is_empty()
        || samples.iter().any(|x| x.is_nan())
        || resamples == 0
        || !(confidence > 0.0 && confidence < 1.0)
    {
        return None;
    }
    let n = samples.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut means: Vec<f64> = (0..resamples)
        .map(|_| (0..n).map(|_| samples[rng.gen_range(0..n)]).sum::<f64>() / n as f64)
        .collect();
    means.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
    let alpha = (1.0 - confidence) / 2.0;
    Some(ConfidenceInterval {
        lo: percentile(&means, alpha),
        hi: percentile(&means, 1.0 - alpha),
    })
}

/// Linear-interpolation percentile of an already-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = p * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_none() {
        assert!(Summary::from_samples(&[]).is_none());
    }

    #[test]
    fn nan_is_none() {
        assert!(Summary::from_samples(&[0.5, f64::NAN]).is_none());
    }

    #[test]
    fn single_sample() {
        let s = Summary::from_samples(&[0.7]).unwrap();
        assert_eq!(s.mean, 0.7);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.min, 0.7);
        assert_eq!(s.q1, 0.7);
        assert_eq!(s.max, 0.7);
    }

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::from_samples(&[0.0, 1.0, 2.0, 3.0]).unwrap();
        assert!((s.q1 - 0.75).abs() < 1e-12);
        assert!((s.median - 1.5).abs() < 1e-12);
        assert!((s.q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn order_invariant() {
        let a = Summary::from_samples(&[0.3, 0.1, 0.2]).unwrap();
        let b = Summary::from_samples(&[0.1, 0.2, 0.3]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn std_matches_known_value() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        // known sample std of this classic dataset is ~2.138
        assert!((s.std - 2.138).abs() < 0.01);
    }

    #[test]
    fn display_contains_all_fields() {
        let s = Summary::from_samples(&[0.5, 0.6]).unwrap();
        let txt = s.to_string();
        for key in ["mean", "min", "q1", "med", "q3", "max"] {
            assert!(txt.contains(key));
        }
    }

    // 50 successes in 100 trials as a sample of 50 ones and 50 zeros
    fn bernoulli(successes: usize, trials: usize) -> Vec<f64> {
        (0..trials).map(|i| if i < successes { 1.0 } else { 0.0 }).collect()
    }

    #[test]
    fn wilson_matches_hand_computed_values() {
        // textbook Wilson 95% interval for 50/100: (0.4038, 0.5962)
        let ci = wilson_interval(&bernoulli(50, 100), 1.96).unwrap();
        assert!((ci.lo - 0.4038).abs() < 1e-3, "lo = {}", ci.lo);
        assert!((ci.hi - 0.5962).abs() < 1e-3, "hi = {}", ci.hi);
        assert!((ci.half_width() - 0.0962).abs() < 1e-3);

        // and for 8/10: (0.4902, 0.9433) — asymmetric around p̂ = 0.8
        let ci = wilson_interval(&bernoulli(8, 10), 1.96).unwrap();
        assert!((ci.lo - 0.4902).abs() < 1e-3, "lo = {}", ci.lo);
        assert!((ci.hi - 0.9433).abs() < 1e-3, "hi = {}", ci.hi);
    }

    #[test]
    fn wilson_never_collapses_at_the_boundaries() {
        // p̂ = 1 with few samples must still report real uncertainty
        let ci = wilson_interval(&[1.0, 1.0, 1.0], 1.96).unwrap();
        assert!(ci.lo < 1.0 && ci.hi <= 1.0);
        assert!(ci.half_width() > 0.1, "n=3 at p̂=1 is far from certain");
    }

    #[test]
    fn wilson_rejects_degenerate_inputs() {
        assert!(wilson_interval(&[], 1.96).is_none());
        assert!(wilson_interval(&[0.5, f64::NAN], 1.96).is_none());
        assert!(wilson_interval(&[0.5], f64::INFINITY).is_none());
    }

    #[test]
    fn bootstrap_zero_variance_is_zero_width() {
        // every resample of a constant sample has the same mean — the
        // interval is exactly the point, hand-computable without an RNG
        let ci = bootstrap_interval(&[0.75; 5], 200, 0.95, 42).unwrap();
        assert_eq!((ci.lo, ci.hi), (0.75, 0.75));
        assert_eq!(ci.half_width(), 0.0);
        // a single sample behaves the same
        let ci = bootstrap_interval(&[0.3], 200, 0.95, 42).unwrap();
        assert_eq!((ci.lo, ci.hi), (0.3, 0.3));
    }

    #[test]
    fn bootstrap_is_deterministic_and_bounded_by_the_sample() {
        let samples = [0.1, 0.4, 0.5, 0.9, 0.95, 0.2];
        let a = bootstrap_interval(&samples, 500, 0.95, 7).unwrap();
        let b = bootstrap_interval(&samples, 500, 0.95, 7).unwrap();
        assert_eq!(a, b, "same inputs, same interval");
        // resampled means live inside [min, max] of the sample
        assert!(a.lo >= 0.1 && a.hi <= 0.95);
        assert!(a.lo <= a.center() && a.center() <= a.hi);
        // wider confidence must not shrink the interval
        let wide = bootstrap_interval(&samples, 500, 0.99, 7).unwrap();
        assert!(wide.half_width() >= a.half_width());
    }

    #[test]
    fn bootstrap_rejects_degenerate_inputs() {
        assert!(bootstrap_interval(&[], 100, 0.95, 0).is_none());
        assert!(bootstrap_interval(&[0.5, f64::NAN], 100, 0.95, 0).is_none());
        assert!(bootstrap_interval(&[0.5], 0, 0.95, 0).is_none());
        assert!(bootstrap_interval(&[0.5], 100, 1.0, 0).is_none());
        assert!(bootstrap_interval(&[0.5], 100, 0.0, 0).is_none());
    }
}
