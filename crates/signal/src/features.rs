//! Feature extraction from utilization traces.
//!
//! The clustering service tags each class with "the utilization pattern,
//! its average utilization, and its peak utilization" (§4.1). The feature
//! vector used for K-Means captures exactly the quantities the scheduler's
//! headroom formulas consume — average, peak, current variability — plus
//! the periodicity strength so diurnal tenants with different phases or
//! amplitudes separate cleanly.

use crate::spectrum::{periodicity_strength_with, SpectrumScratch};

/// Summary features of one tenant's utilization trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceFeatures {
    /// Mean utilization over the window, in `[0, 1]`.
    pub mean: f64,
    /// Peak utilization over the window, in `[0, 1]`.
    pub peak: f64,
    /// Standard deviation of utilization.
    pub std_dev: f64,
    /// Fraction of non-DC spectral power at the diurnal frequency.
    pub diurnal_strength: f64,
}

impl TraceFeatures {
    /// Extracts features from a trace sampled with `period_samples` as the
    /// candidate diurnal period (720 for two-minute sampling).
    pub fn extract(values: &[f64], period_samples: f64) -> Self {
        Self::extract_with(values, period_samples, &mut SpectrumScratch::new())
    }

    /// [`TraceFeatures::extract`] with caller-owned spectrum scratch;
    /// identical bit for bit.
    pub fn extract_with(
        values: &[f64],
        period_samples: f64,
        scratch: &mut SpectrumScratch,
    ) -> Self {
        let (mean, peak, std_dev) = moments(values);
        TraceFeatures {
            mean,
            peak,
            std_dev,
            diurnal_strength: periodicity_strength_with(values, period_samples, scratch),
        }
    }

    /// The feature vector used by K-Means.
    pub fn to_vec(self) -> Vec<f64> {
        vec![self.mean, self.peak, self.std_dev, self.diurnal_strength]
    }
}

/// Mean, peak and (population) standard deviation of a trace, all 0
/// for an empty one.
///
/// The sum and the `f64::max` fold share one pass, so the max
/// comparisons overlap the sum's serial chain instead of costing a
/// second walk. The sum still adds every sample in index order from
/// `-0.0` (where `Iterator::sum` starts), so the mean keeps its bits.
/// The max runs in eight lanes, merged at the end: a maximum does not
/// depend on the order of the fold (NaNs are skipped either way), and
/// the compiled two-pass fold reduced in vector lanes too. Only the
/// sign of a zero maximum could differ, which `f64::max` leaves
/// unspecified.
pub(crate) fn moments(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let n = values.len() as f64;
    let (rows, rest) = values.as_chunks::<8>();
    let mut sum = -0.0;
    let mut peaks = [f64::NEG_INFINITY; 8];
    for row in rows {
        for (peak, &v) in peaks.iter_mut().zip(row) {
            sum += v;
            *peak = f64::max(*peak, v);
        }
    }
    let mut peak = peaks.into_iter().fold(f64::NEG_INFINITY, f64::max);
    for &v in rest {
        sum += v;
        peak = f64::max(peak, v);
    }
    let mean = sum / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    (mean, peak, var.sqrt())
}

/// Z-score normalizes each dimension across a set of feature vectors.
///
/// Dimensions with zero variance are left centered at zero. Returns the
/// normalized vectors; the input order is preserved.
pub fn normalize_features(features: &[Vec<f64>]) -> Vec<Vec<f64>> {
    if features.is_empty() {
        return Vec::new();
    }
    let dim = features[0].len();
    let n = features.len() as f64;
    let mut means = vec![0.0; dim];
    for f in features {
        for (m, &x) in means.iter_mut().zip(f) {
            *m += x;
        }
    }
    for m in &mut means {
        *m /= n;
    }
    let mut stds = vec![0.0; dim];
    for f in features {
        for ((s, &x), &m) in stds.iter_mut().zip(f).zip(&means) {
            *s += (x - m) * (x - m);
        }
    }
    for s in &mut stds {
        *s = (*s / n).sqrt();
    }
    features
        .iter()
        .map(|f| {
            f.iter()
                .zip(&means)
                .zip(&stds)
                .map(|((&x, &m), &s)| if s > 1e-12 { (x - m) / s } else { 0.0 })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_basic_moments() {
        let values = vec![0.2, 0.4, 0.6, 0.8];
        let f = TraceFeatures::extract(&values, 720.0);
        assert!((f.mean - 0.5).abs() < 1e-12);
        assert_eq!(f.peak, 0.8);
        assert!(f.std_dev > 0.0);
    }

    /// The fused pass keeps the bits of the separate sum and max fold:
    /// a month-long trace, lengths on and off the eight lanes, the
    /// maximum in every lane and in the tail, NaNs, overflow, and
    /// all-negative or all-zero samples.
    #[test]
    fn fused_moments_match_two_passes_bitwise() {
        let wave = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|i| 0.4 + 0.3 * (i as f64 * 0.013).sin() + 1e-9 * (i % 7) as f64)
                .collect()
        };
        let mut cases = vec![
            wave(21_600),
            wave(21_603),
            vec![-0.0; 5],
            vec![-0.0; 16],
            vec![0.0; 11],
            vec![-0.0, 0.0, -0.0],
            vec![0.3, f64::NAN, 0.9],
            vec![f64::NAN, 0.2],
            vec![f64::NAN; 9],
            vec![1e308, 1e308, -1e308],
            vec![1e308; 12],
            (0..19).map(|i| -1.0 - i as f64).collect(),
        ];
        for at in 0..19 {
            let mut spike = wave(19);
            spike[at] = 0.95;
            spike[(at + 5) % 19] = f64::NAN;
            cases.push(spike);
        }
        for values in cases {
            let n = values.len() as f64;
            let mean = values.iter().sum::<f64>() / n;
            let peak = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let (m, p, _) = moments(&values);
            assert_eq!(m.to_bits(), mean.to_bits(), "{values:?}");
            assert_eq!(p.to_bits(), peak.to_bits(), "{values:?}");
        }
    }

    #[test]
    fn empty_trace_is_zeroed() {
        let f = TraceFeatures::extract(&[], 720.0);
        assert_eq!(f.to_vec(), vec![0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn diurnal_feature_separates_patterns() {
        let spd = 720;
        let diurnal: Vec<f64> = (0..30 * spd)
            .map(|i| 0.5 + 0.3 * (2.0 * std::f64::consts::PI * i as f64 / spd as f64).sin())
            .collect();
        let flat = vec![0.5; 30 * spd];
        let fd = TraceFeatures::extract(&diurnal, spd as f64);
        let ff = TraceFeatures::extract(&flat, spd as f64);
        assert!(fd.diurnal_strength > 0.5);
        assert!(ff.diurnal_strength < 0.05);
    }

    #[test]
    fn normalization_zero_mean_unit_var() {
        let raw = vec![
            vec![1.0, 100.0],
            vec![2.0, 200.0],
            vec![3.0, 300.0],
            vec![4.0, 400.0],
        ];
        let norm = normalize_features(&raw);
        for d in 0..2 {
            let mean: f64 = norm.iter().map(|f| f[d]).sum::<f64>() / norm.len() as f64;
            let var: f64 = norm.iter().map(|f| f[d] * f[d]).sum::<f64>() / norm.len() as f64;
            assert!(mean.abs() < 1e-12, "dim {d} mean {mean}");
            assert!((var - 1.0).abs() < 1e-9, "dim {d} var {var}");
        }
    }

    #[test]
    fn normalization_constant_dimension() {
        let raw = vec![vec![5.0, 1.0], vec![5.0, 2.0]];
        let norm = normalize_features(&raw);
        assert_eq!(norm[0][0], 0.0);
        assert_eq!(norm[1][0], 0.0);
        assert_ne!(norm[0][1], norm[1][1]);
    }

    #[test]
    fn normalization_empty_input() {
        assert!(normalize_features(&[]).is_empty());
    }
}
