//! Descriptive statistics: running moments, slice mean/variance, and the
//! Kolmogorov–Smirnov distance of a sample from a gridded density.
//!
//! The Fokker–Planck density is cross-validated against Langevin
//! Monte-Carlo samples (experiment E4 in `DESIGN.md`); the KS distance
//! is the agreement metric reported in `EXPERIMENTS.md`.

use crate::{NumericsError, Result};

/// Numerically stable running mean/variance (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Fresh accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one observation in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; 0 with fewer than two observations.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (+∞ when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Half-width of the normal-approximation 95% confidence interval
    /// for the mean: `1.96 · s / √n`; 0 with fewer than two
    /// observations. Replication counts in ensemble sweeps are small, so
    /// this is a deliberate normal (not Student-t) approximation — the
    /// reported interval is slightly anti-conservative for n ≲ 10.
    #[must_use]
    pub fn ci95_halfwidth(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// KS distance between an empirical sample and a discretised density
/// `(centers, pdf)` interpreted as a piecewise-constant distribution with
/// uniform spacing.
///
/// # Errors
/// [`NumericsError::InvalidParameter`] on empty inputs;
/// [`NumericsError::DimensionMismatch`] when table lengths differ.
pub fn ks_sample_vs_density(sample: &[f64], centers: &[f64], pdf: &[f64]) -> Result<f64> {
    if sample.is_empty() || centers.len() < 2 {
        return Err(NumericsError::InvalidParameter {
            context: "ks_sample_vs_density: empty inputs",
        });
    }
    if centers.len() != pdf.len() {
        return Err(NumericsError::DimensionMismatch {
            context: "ks_sample_vs_density: centers and pdf lengths differ",
        });
    }
    let dx = centers[1] - centers[0];
    // Build model CDF at bin right edges, normalising the discrete pdf.
    let total: f64 = pdf.iter().sum::<f64>() * dx;
    if total <= 0.0 {
        return Err(NumericsError::InvalidParameter {
            context: "ks_sample_vs_density: density has no mass",
        });
    }
    let mut cdf = Vec::with_capacity(pdf.len());
    let mut acc = 0.0;
    for p in pdf {
        acc += p * dx / total;
        cdf.push(acc);
    }
    let mut xs = sample.to_vec();
    xs.sort_unstable_by(|p, q| p.partial_cmp(q).unwrap());
    let n = xs.len() as f64;
    let mut d: f64 = 0.0;
    for (k, edge_pdfcdf) in cdf.iter().enumerate() {
        let edge = centers[k] + 0.5 * dx;
        // Empirical CDF at this edge.
        let idx = xs.partition_point(|&v| v <= edge);
        d = d.max((idx as f64 / n - edge_pdfcdf).abs());
    }
    Ok(d)
}

/// Sample mean of a slice; 0 for empty input.
#[must_use]
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Unbiased sample variance of a slice; 0 with fewer than 2 samples.
#[must_use]
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (x.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn running_stats_match_direct() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert!(approx_eq(rs.mean(), 5.0, 1e-14, 0.0));
        assert!(approx_eq(rs.variance(), variance(&xs), 1e-12, 0.0));
        assert!(approx_eq(rs.min(), 2.0, 0.0, 0.0));
        assert!(approx_eq(rs.max(), 9.0, 0.0, 0.0));
        assert_eq!(rs.count(), 8);
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let mut all = RunningStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..20] {
            a.push(x);
        }
        for &x in &xs[20..] {
            b.push(x);
        }
        a.merge(&b);
        assert!(approx_eq(a.mean(), all.mean(), 1e-12, 1e-12));
        assert!(approx_eq(a.variance(), all.variance(), 1e-12, 1e-12));
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn ci95_halfwidth_scales_with_sqrt_n() {
        // σ = 1 (alternating ±1 about mean 0): s ≈ 1.0, so the half-width
        // is ≈ 1.96/√n and quarters... halves when n quadruples.
        let fill = |n: usize| {
            let mut rs = RunningStats::new();
            for i in 0..n {
                rs.push(if i % 2 == 0 { 1.0 } else { -1.0 });
            }
            rs
        };
        let a = fill(100);
        let b = fill(400);
        assert!(approx_eq(a.ci95_halfwidth(), 1.96 / 10.0, 1e-2, 1e-3));
        assert!(approx_eq(
            a.ci95_halfwidth() / b.ci95_halfwidth(),
            2.0,
            1e-2,
            0.0
        ));
        // Degenerate accumulators report a zero-width interval.
        assert_eq!(RunningStats::new().ci95_halfwidth(), 0.0);
        let mut one = RunningStats::new();
        one.push(3.0);
        assert_eq!(one.ci95_halfwidth(), 0.0);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.clone();
        a.merge(&RunningStats::new());
        assert!(approx_eq(a.mean(), before.mean(), 0.0, 0.0));
        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert!(approx_eq(empty.mean(), before.mean(), 0.0, 0.0));
    }

    #[test]
    fn ks_sample_vs_density_uniform() {
        // Uniform density on [0, 1), sample drawn uniformly → small D.
        let centers: Vec<f64> = (0..100).map(|i| (i as f64 + 0.5) / 100.0).collect();
        let pdf = vec![1.0; 100];
        let sample: Vec<f64> = (0..2000).map(|i| (i as f64 + 0.5) / 2000.0).collect();
        let d = ks_sample_vs_density(&sample, &centers, &pdf).unwrap();
        assert!(d < 0.02, "d={d}");
    }
}
