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
//!
//! # Cost
//!
//! Every sweep point calibrates before it simulates, so [`calibrate`]
//! is set-up on the path of every scheduler run. Its bisection needs,
//! per step, only the side of the target the fleet mean falls on. Under
//! linear scaling a certified estimate from per-block summaries decides
//! the steps far from the target, and a full exact pass over the
//! samples runs only on the ~20 steps (of ~59 on DC-9) that fall within
//! the estimate's rounding margin of it; the result keeps the bits of
//! the all-exact bisection. Root scaling pays `powf` per sample on
//! every step.

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
    /// The transform with parameter `param`, before saturation.
    #[inline]
    fn unclamped(self, v: f64, param: f64) -> f64 {
        match self {
            ScalingKind::Linear => v * param,
            ScalingKind::Root => v.max(0.0).powf(param),
        }
    }

    /// One sample of [`scale`]: the transform saturated to `[0, 1]`.
    /// [`scale`] maps the unsaturated transform over a series with
    /// `TimeSeries::map_clamped`, which saturates the same way, and
    /// [`calibrate`] sums this in place, as a utilization view reads
    /// it, so all three agree bit for bit.
    #[inline]
    pub fn apply(self, v: f64, param: f64) -> f64 {
        self.unclamped(v, param).clamp(0.0, 1.0)
    }

    /// Panics unless `param` is a valid parameter of this scaling: a
    /// non-negative factor, or a positive exponent.
    pub fn check_param(self, param: f64) {
        match self {
            ScalingKind::Linear => assert!(param >= 0.0, "scaling factor must be non-negative"),
            ScalingKind::Root => assert!(param > 0.0, "root exponent must be positive"),
        }
    }
}

/// Multiplies every sample by `factor`, saturating at 1.0.
pub(crate) fn scale_linear(ts: &TimeSeries, factor: f64) -> TimeSeries {
    ScalingKind::Linear.check_param(factor);
    ts.map_clamped(|v| ScalingKind::Linear.unclamped(v, factor))
}

/// Raises every sample to the power `exponent` (`u^e`).
///
/// `e = 1/n` is the paper's nth-root scaling (raises utilization);
/// `e > 1` lowers it. Saturation is impossible since `u ∈ [0, 1]`.
pub(crate) fn scale_root(ts: &TimeSeries, exponent: f64) -> TimeSeries {
    ScalingKind::Root.check_param(exponent);
    ts.map_clamped(|v| ScalingKind::Root.unclamped(v, exponent))
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
/// Samples per trace [`group_means`] adds between bounds checks, and
/// per block summary of `calibrate`'s cheap check.
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

/// `γ_n = n·u / (1 − n·u)`: the relative error bound of `n` rounded
/// operations on non-negative terms (Higham, *Accuracy and Stability of
/// Numerical Algorithms*, §3.1 and §4.2).
fn gamma(n: usize) -> f64 {
    let nu = n as f64 * (f64::EPSILON / 2.0);
    nu / (1.0 - nu)
}

/// A summary of a run of raw samples: one [`BLOCK`]-sample block of a
/// trace, or a whole trace.
#[derive(Debug, Clone, Copy)]
struct Summary {
    /// Smallest sample (NaN if any sample is NaN).
    min: f64,
    /// Largest sample (NaN if any sample is NaN).
    max: f64,
    /// The samples' sum.
    sum: f64,
}

impl Summary {
    const EMPTY: Summary = Summary {
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        sum: 0.0,
    };

    fn add(self, other: Summary) -> Summary {
        Summary {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            sum: self.sum + other.sum,
        }
    }

    /// Marks a run whose sum is NaN (a NaN sample, or +∞ beside −∞) as
    /// fitting no regime.
    fn checked(self) -> Summary {
        if self.sum.is_nan() {
            Summary {
                min: f64::NAN,
                max: f64::NAN,
                ..self
            }
        } else {
            self
        }
    }

    /// One block, in eight interleaved partial sums so the pass
    /// vectorises (the `γ` bound holds for any order of addition).
    fn of_block(samples: &[f64]) -> Summary {
        let (rows, rest) = samples.as_chunks::<8>();
        let mut min = [f64::INFINITY; 8];
        let mut max = [f64::NEG_INFINITY; 8];
        let mut sum = [0.0; 8];
        for row in rows {
            for j in 0..8 {
                min[j] = if row[j] < min[j] { row[j] } else { min[j] };
                max[j] = if row[j] > max[j] { row[j] } else { max[j] };
                sum[j] += row[j];
            }
        }
        let lanes = (0..8).map(|j| Summary {
            min: min[j],
            max: max[j],
            sum: sum[j],
        });
        let tail = rest.iter().map(|&v| Summary {
            min: v,
            max: v,
            sum: v,
        });
        lanes
            .chain(tail)
            .fold(Summary::EMPTY, Summary::add)
            .checked()
    }

    /// The summarised samples' sum under linear scaling by `k` when one
    /// regime covers them all: `k × sum` when they lie wholly in
    /// `[0, 1/k]`, their count when wholly saturated.
    fn linear_sum(self, k: f64, len: usize) -> Option<f64> {
        if self.min >= 0.0 && self.max * k <= 1.0 {
            Some(k * self.sum)
        } else if self.min * k >= 1.0 {
            Some(len as f64)
        } else {
            None
        }
    }
}

/// `samples` under `sample`, added in eight interleaved partial sums so
/// the additions overlap (the `γ` bound holds for any order of
/// addition).
fn lane_sum(samples: &[f64], sample: impl Fn(f64) -> f64) -> f64 {
    let (rows, rest) = samples.as_chunks::<8>();
    let mut sums = [0.0; 8];
    for row in rows {
        for (sum, &v) in sums.iter_mut().zip(row) {
            *sum += sample(v);
        }
    }
    sums.into_iter()
        .chain(rest.iter().map(|&v| sample(v)))
        .sum()
}

/// One trace's summaries for `linear_estimate`: the whole trace (its
/// sum adds the block sums in order) and each [`BLOCK`]-sample block.
struct TraceSummary {
    whole: Summary,
    blocks: Vec<Summary>,
}

impl TraceSummary {
    fn of(t: &TimeSeries) -> Self {
        let blocks: Vec<Summary> = t.values().chunks(BLOCK).map(Summary::of_block).collect();
        let whole = blocks
            .iter()
            .copied()
            .fold(Summary::EMPTY, Summary::add)
            .checked();
        TraceSummary { whole, blocks }
    }
}

/// [`fleet_mean`] under linear scaling by `k`, estimated from the
/// `summaries` of `traces`. A trace or block whose samples lie wholly
/// at or below the knee `1/k` adds `k × sum`, a wholly saturated one
/// adds its length; a trace that fits neither goes block by block, and
/// a block that fits neither (straddling the knee, negative or NaN)
/// adds its samples, each scaled and clamped. Within `γ_N` (relative) of the
/// exact-arithmetic mean, for the `N` [`calibrate`] derives.
fn linear_estimate(traces: &[&TimeSeries], summaries: &[TraceSummary], k: f64) -> f64 {
    let total: f64 = traces
        .iter()
        .zip(summaries)
        .map(|(t, s)| {
            let sum = s.whole.linear_sum(k, t.len()).unwrap_or_else(|| {
                t.values()
                    .chunks(BLOCK)
                    .zip(&s.blocks)
                    .map(|(samples, b)| {
                        b.linear_sum(k, samples.len()).unwrap_or_else(|| {
                            lane_sum(samples, |v| ScalingKind::Linear.apply(v, k))
                        })
                    })
                    .sum()
            });
            sum / t.len() as f64
        })
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
/// trace order. The search takes at most 60 steps and stops early,
/// exactly, once a step leaves `(lo, hi)` unchanged, since every later
/// step would repeat it.
///
/// A step only needs to know on which side of the target the fleet mean
/// falls. Under linear scaling, a cheap check decides most steps: one
/// pass per call summarises every trace and every 64-sample block of it
/// as `(min, max, sum)`, and each step estimates the fleet mean from
/// those summaries (see `linear_estimate`). The estimate and the exact
/// sum are both recursive sums of non-negative terms, each within `γ_N`
/// (relative) of the exact-arithmetic mean. `N` is the longest trace
/// plus the trace count plus the block length plus a few: it counts the
/// roundings either one makes on a sample's way into the mean, with
/// room for the rounding of the check itself. So the two
/// differ by at most `2·γ_N/(1 − γ_N)` of the estimate (~5e-12 on
/// DC-9), plus the smallest normal number to cover underflow. An
/// estimate farther than that from the target decides the step. Any
/// other step, or a non-finite estimate, runs the exact pass: each
/// trace's samples scaled and added in index order, eight equal-length
/// traces in lockstep, with no copy. Only steps that close to the
/// target need it (18 of 59 on DC-9 to 45%). Once exact passes have
/// set both `lo` and `hi`, every later step is that close, so it skips
/// the estimate and runs the exact pass at once (16 of those 18 on
/// DC-9): a skipped estimate costs no bits, since the exact pass
/// decides every step the same way. Root scaling runs the
/// exact pass on every step: its cost is `powf` per sample and it has
/// no regime a block summary could decide.
pub fn calibrate(traces: &[&TimeSeries], kind: ScalingKind, target_mean: f64) -> f64 {
    calibrate_counted(traces, kind, target_mean).0
}

/// [`calibrate`], also returning how many bisection steps ran the exact
/// pass and how many computed the estimate.
pub(crate) fn calibrate_counted(
    traces: &[&TimeSeries],
    kind: ScalingKind,
    target_mean: f64,
) -> (f64, Counts) {
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
    let summaries: Option<Vec<TraceSummary>> =
        (kind == ScalingKind::Linear).then(|| traces.iter().map(|t| TraceSummary::of(t)).collect());
    let longest = traces.iter().map(|t| t.len()).max().unwrap_or(0);
    let g = gamma(longest + traces.len() + BLOCK + 4);
    let certain = |estimate: f64| {
        estimate.is_finite()
            && (estimate - target_mean).abs()
                > 2.0 * g / (1.0 - g) * estimate.abs() + f64::MIN_POSITIVE
    };
    // Parameter ranges: linear factor in [0, 64]; root exponent in
    // [1/64, 64]. Root scaling *decreases* the mean as the exponent grows,
    // so its search is inverted.
    let (mut lo, mut hi, increasing) = match kind {
        ScalingKind::Linear => (0.0f64, 64.0f64, true),
        ScalingKind::Root => (1.0 / 64.0, 64.0f64, false),
    };
    let mut counts = Counts::default();
    // Whether an exact pass set each of `lo` and `hi`. Once both were,
    // every later midpoint's mean lies between two means within the
    // margin of the target, so no estimate could decide it: the exact
    // pass runs straight away.
    let mut exact_ends = [false; 2];
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        let estimate = match summaries.as_deref() {
            Some(s) if exact_ends != [true; 2] => {
                counts.estimates += 1;
                Some(linear_estimate(traces, s, mid))
            }
            _ => None,
        };
        let (m, exact) = match estimate {
            Some(estimate) if certain(estimate) => (estimate, false),
            _ => {
                counts.exact_passes += 1;
                (mean_with(mid), true)
            }
        };
        let go_up = if increasing {
            m < target_mean
        } else {
            m > target_mean
        };
        let (end, end_exact) = if go_up {
            (&mut lo, &mut exact_ends[0])
        } else {
            (&mut hi, &mut exact_ends[1])
        };
        if end.to_bits() == mid.to_bits() {
            // A fixed point: the next step sees the same (lo, hi).
            break;
        }
        *end = mid;
        *end_exact = exact;
    }
    (0.5 * (lo + hi), counts)
}

/// What one [`calibrate`] call computed, for the tests.
#[derive(Debug, Default)]
pub(crate) struct Counts {
    /// Steps that ran the exact pass.
    pub exact_passes: usize,
    /// Steps that computed the linear estimate.
    pub estimates: usize,
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

    /// The cheap check decides most steps: linear calibration of
    /// generated DC-9 traces makes an exact pass only on the steps near
    /// the target (one per step, 59, without the check).
    #[test]
    fn linear_calibration_makes_few_exact_passes() {
        use crate::datacenter::DatacenterProfile;
        use crate::SAMPLES_PER_MONTH;
        use harvest_sim::rng::indexed_rng;

        let traces: Vec<TimeSeries> = DatacenterProfile::dc(9)
            .scaled(0.1)
            .sample_tenants(42)
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut rng = indexed_rng(42, "tenant-trace", i as u64);
                spec.util.generate(&mut rng, SAMPLES_PER_MONTH)
            })
            .collect();
        let refs: Vec<&TimeSeries> = traces.iter().collect();
        let (factor, counts) = calibrate_counted(&refs, ScalingKind::Linear, 0.45);
        assert!(factor > 1.0, "DC-9 runs below 45%, got factor {factor}");
        assert!(counts.exact_passes <= 24, "{counts:?}");
        // Once exact passes have set both ends, the remaining steps
        // (16 of them here) skip the estimate they could not use.
        assert!(counts.estimates <= 45, "{counts:?}");
    }

    #[test]
    fn scaling_kind_display() {
        assert_eq!(ScalingKind::Linear.to_string(), "linear");
        assert_eq!(ScalingKind::Root.to_string(), "root");
    }
}
