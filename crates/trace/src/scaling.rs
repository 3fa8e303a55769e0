//! Utilization scaling for the simulation sweeps (§6.1).
//!
//! "To study a spectrum of utilizations, we also experiment with higher
//! and lower traffic levels, each time multiplying the CPU utilization
//! time series by a constant factor and saturating at 100%. Because of the
//! inaccuracy introduced by saturation, we also study a method in which we
//! scale the CPU utilizations using nth-root functions."
//!
//! Linear scaling preserves (and, past saturation, amplifies) temporal
//! variation; root scaling compresses the high end, "making the higher
//! utilizations change less than the lower ones" and reducing saturation.
//! Figure 13's YARN-PT curves differ across the two scalings for exactly
//! this reason.

use crate::timeseries::TimeSeries;

/// How a utilization sweep transforms the base traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalingKind {
    /// Multiply by a constant, saturating at 100%.
    Linear,
    /// Raise to a power (`u^e`), which for `e < 1` behaves like the
    /// paper's nth-root scaling.
    Root,
}

impl std::fmt::Display for ScalingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScalingKind::Linear => f.write_str("linear"),
            ScalingKind::Root => f.write_str("root"),
        }
    }
}

impl ScalingKind {
    /// One sample of [`scale`]: the transform with parameter `param`,
    /// saturated to `[0, 1]`. [`scale`] maps it over a series and
    /// [`calibrate`] sums it in place, so the two agree bit for bit.
    fn apply(self, v: f64, param: f64) -> f64 {
        match self {
            ScalingKind::Linear => v * param,
            ScalingKind::Root => v.max(0.0).powf(param),
        }
        .clamp(0.0, 1.0)
    }
}

/// Multiplies every sample by `factor`, saturating at 1.0.
pub fn scale_linear(ts: &TimeSeries, factor: f64) -> TimeSeries {
    assert!(factor >= 0.0, "scaling factor must be non-negative");
    ts.map_clamped(|v| ScalingKind::Linear.apply(v, factor))
}

/// Raises every sample to the power `exponent` (`u^e`).
///
/// `e = 1/n` is the paper's nth-root scaling (raises utilization);
/// `e > 1` lowers it. Saturation is impossible since `u ∈ [0, 1]`.
pub fn scale_root(ts: &TimeSeries, exponent: f64) -> TimeSeries {
    assert!(exponent > 0.0, "root exponent must be positive");
    ts.map_clamped(|v| ScalingKind::Root.apply(v, exponent))
}

/// Applies the given scaling with the given parameter.
pub fn scale(ts: &TimeSeries, kind: ScalingKind, param: f64) -> TimeSeries {
    match kind {
        ScalingKind::Linear => scale_linear(ts, param),
        ScalingKind::Root => scale_root(ts, param),
    }
}

/// Traces [`fleet_mean`] sums in lockstep, one accumulator each.
const LANES: usize = 8;
/// Samples per trace [`group_means`] adds between bounds checks.
const BLOCK: usize = 64;

/// The mean of each trace in `group` (at most [`LANES`] of them) under
/// `sample`, in the first `group.len()` slots: the bits of
/// `t.map_clamped(sample).mean()`. Each trace adds its samples in index
/// order from `-0.0`, as `Iterator::sum` does; equal-length groups of
/// [`LANES`] interleave those chains so they overlap, the rest run them
/// one trace at a time.
fn group_means(group: &[&TimeSeries], sample: impl Fn(f64) -> f64 + Copy) -> [f64; LANES] {
    let mut means = [0.0; LANES];
    let n = group[0].len();
    match <&[&TimeSeries; LANES]>::try_from(group) {
        Ok(lanes) if lanes.iter().all(|t| t.len() == n) => {
            let mut sums = [-0.0; LANES];
            let whole = n - n % BLOCK;
            for from in (0..whole).step_by(BLOCK) {
                // Fixed-size rows: the inner loop carries no bounds checks.
                let rows: [&[f64; BLOCK]; LANES] = lanes.map(|t| {
                    t.values()[from..from + BLOCK]
                        .try_into()
                        .expect("whole block")
                });
                for i in 0..BLOCK {
                    for (sum, row) in sums.iter_mut().zip(&rows) {
                        *sum += sample(row[i]);
                    }
                }
            }
            for i in whole..n {
                for (sum, t) in sums.iter_mut().zip(lanes) {
                    *sum += sample(t.values()[i]);
                }
            }
            for (mean, sum) in means.iter_mut().zip(sums) {
                *mean = sum / n as f64;
            }
        }
        _ => {
            for (mean, t) in means.iter_mut().zip(group) {
                *mean = t.values().iter().map(|&v| sample(v)).sum::<f64>() / t.len() as f64;
            }
        }
    }
    means
}

/// The fleet-average of `traces` under `sample`: the trace means added
/// in trace order, over the trace count — the bits of
/// `traces.iter().map(|t| t.map_clamped(sample).mean()).sum() / len`,
/// without the copies.
fn fleet_mean(traces: &[&TimeSeries], sample: impl Fn(f64) -> f64 + Copy) -> f64 {
    let total: f64 = traces
        .chunks(LANES)
        .flat_map(|group| group_means(group, sample).into_iter().take(group.len()))
        .sum();
    total / traces.len() as f64
}

/// Finds the scaling parameter that brings the *fleet-average* utilization
/// of `traces` to `target_mean`, by bisection.
///
/// For [`ScalingKind::Linear`] the parameter is the multiplicative factor;
/// for [`ScalingKind::Root`] it is the exponent. Returns the parameter.
/// The mapping is monotone in both cases, so bisection converges.
///
/// The result has the same bits as a bisection that scales every trace
/// with [`scale`], takes each [`TimeSeries::mean`] and adds the means in
/// trace order: each step evaluates exactly that sum, fused into one pass
/// over the samples with no copy. The search takes at most 60 steps and
/// stops early, exactly, once a step leaves `(lo, hi)` unchanged, since
/// every later step would repeat it. Root scaling's cost is bound by
/// `powf` per sample.
pub fn calibrate(traces: &[&TimeSeries], kind: ScalingKind, target_mean: f64) -> f64 {
    assert!(!traces.is_empty(), "cannot calibrate zero traces");
    assert!(
        (0.0..=1.0).contains(&target_mean),
        "target mean must be in [0, 1], got {target_mean}"
    );
    // One monomorphised pass per kind, so the transform inlines.
    let mean_with = |param: f64| -> f64 {
        match kind {
            ScalingKind::Linear => fleet_mean(traces, |v| ScalingKind::Linear.apply(v, param)),
            ScalingKind::Root => fleet_mean(traces, |v| ScalingKind::Root.apply(v, param)),
        }
    };
    // Parameter ranges: linear factor in [0, 64]; root exponent in
    // [1/64, 64]. Root scaling *decreases* the mean as the exponent grows,
    // so its search is inverted.
    let (mut lo, mut hi, increasing) = match kind {
        ScalingKind::Linear => (0.0f64, 64.0f64, true),
        ScalingKind::Root => (1.0 / 64.0, 64.0f64, false),
    };
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        let m = mean_with(mid);
        let go_up = if increasing {
            m < target_mean
        } else {
            m > target_mean
        };
        let end = if go_up { &mut lo } else { &mut hi };
        if end.to_bits() == mid.to_bits() {
            // A fixed point: the next step sees the same (lo, hi).
            break;
        }
        *end = mid;
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_sim::SimDuration;

    fn ts(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new(SimDuration::from_mins(2), values)
    }

    #[test]
    fn linear_scales_and_saturates() {
        let base = ts(vec![0.2, 0.5, 0.8]);
        let scaled = scale_linear(&base, 2.0);
        assert_eq!(scaled.values(), &[0.4, 1.0, 1.0]);
    }

    #[test]
    fn root_raises_without_saturation() {
        let base = ts(vec![0.25, 0.81]);
        let scaled = scale_root(&base, 0.5);
        assert!((scaled.values()[0] - 0.5).abs() < 1e-12);
        assert!((scaled.values()[1] - 0.9).abs() < 1e-12);
        assert!(scaled.peak() < 1.0);
    }

    #[test]
    fn root_compresses_high_more_than_low() {
        // The paper's rationale: higher utilizations change less.
        let base = ts(vec![0.1, 0.9]);
        let scaled = scale_root(&base, 0.5);
        let low_gain = scaled.values()[0] - 0.1;
        let high_gain = scaled.values()[1] - 0.9;
        assert!(low_gain > high_gain);
    }

    #[test]
    fn calibrate_linear_hits_target() {
        let a = ts(vec![0.1; 100]);
        let b = ts(vec![0.3; 100]);
        let factor = calibrate(&[&a, &b], ScalingKind::Linear, 0.4);
        let mean = (scale_linear(&a, factor).mean() + scale_linear(&b, factor).mean()) / 2.0;
        assert!((mean - 0.4).abs() < 1e-3, "calibrated mean {mean}");
        assert!((factor - 2.0).abs() < 1e-2, "factor {factor}");
    }

    #[test]
    fn calibrate_linear_with_saturation() {
        let a = ts(vec![0.9, 0.1]);
        let factor = calibrate(&[&a], ScalingKind::Linear, 0.75);
        let mean = scale_linear(&a, factor).mean();
        assert!((mean - 0.75).abs() < 1e-3, "calibrated mean {mean}");
    }

    #[test]
    fn calibrate_root_raises_and_lowers() {
        let a = ts(vec![0.25; 10]);
        let up = calibrate(&[&a], ScalingKind::Root, 0.5);
        assert!((scale_root(&a, up).mean() - 0.5).abs() < 1e-3);
        assert!(up < 1.0, "raising utilization needs exponent < 1, got {up}");
        let down = calibrate(&[&a], ScalingKind::Root, 0.1);
        assert!((scale_root(&a, down).mean() - 0.1).abs() < 1e-3);
        assert!(down > 1.0);
    }

    #[test]
    fn linear_preserves_more_variation_than_root_at_high_util() {
        // Root scaling compresses variation at high utilization; linear
        // keeps it until saturation. This asymmetry drives Figure 13.
        let base = ts((0..720)
            .map(|i| 0.25 + 0.15 * (2.0 * std::f64::consts::PI * i as f64 / 720.0).sin())
            .collect());
        let lf = calibrate(&[&base], ScalingKind::Linear, 0.55);
        let rf = calibrate(&[&base], ScalingKind::Root, 0.55);
        let lin = scale_linear(&base, lf);
        let root = scale_root(&base, rf);
        assert!(
            lin.std_dev() > root.std_dev(),
            "linear sd {} should exceed root sd {}",
            lin.std_dev(),
            root.std_dev()
        );
    }

    #[test]
    fn scaling_kind_display() {
        assert_eq!(ScalingKind::Linear.to_string(), "linear");
        assert_eq!(ScalingKind::Root.to_string(), "root");
    }
}
