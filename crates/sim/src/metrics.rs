//! Streaming statistics, percentile sets, and histograms.
//!
//! The experiment harness reports the same aggregates the paper does:
//! means with min/max intervals over five runs, 99th-percentile latencies,
//! and CDFs. These small self-contained accumulators back all of that.

use std::fmt;

/// Online mean/variance/min/max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0.0 if fewer than two observations.
    pub(crate) fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub(crate) fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or +∞ if empty.
    pub fn min(&self) -> f64 {
        self.min
    }
}

impl fmt::Display for StreamingStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min,
            self.max
        )
    }
}

/// Exact percentile computation over a retained sample set.
///
/// Keeps every pushed value; call [`Percentiles::quantile`] to query. Uses
/// linear interpolation between closest ranks (the common "type 7"
/// definition).
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    values: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty set.
    pub fn new() -> Self {
        Percentiles {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    /// Adds many observations.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        self.values.extend(xs);
        self.sorted = false;
    }

    /// Returns the `q`-quantile (`q` in `[0, 1]`), or `None` if empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if !self.sorted {
            self.values
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in percentile set"));
            self.sorted = true;
        }
        quantile_sorted(&self.values, q)
    }

    /// Consumes the set into an immutable [`SortedSamples`] view so read
    /// paths can query quantiles through `&self`.
    pub fn freeze(mut self) -> SortedSamples {
        if !self.sorted {
            self.values
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in percentile set"));
        }
        SortedSamples {
            values: self.values,
        }
    }
}

/// Type-7 quantile over an already-sorted slice.
fn quantile_sorted(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let n = values.len();
    if n == 1 {
        return Some(values[0]);
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(values[lo] * (1.0 - frac) + values[hi] * frac)
}

/// An immutable, pre-sorted sample set: the read-path counterpart of
/// [`Percentiles`]. Build one with [`Percentiles::freeze`] once ingestion
/// is done; every query takes `&self`, so summary emission never needs
/// mutable access.
#[derive(Debug, Clone, Default)]
pub struct SortedSamples {
    values: Vec<f64>,
}

impl SortedSamples {
    /// Returns the `q`-quantile (`q` in `[0, 1]`), or `None` if empty.
    /// Same type-7 interpolation as [`Percentiles::quantile`].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_sorted(&self.values, q)
    }

    /// Convenience wrapper for the 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }
}

/// Capacity of each compactor level; higher means lower rank error and
/// more memory. 256 keeps the worst observed rank error well under the
/// documented 2% bound.
const SKETCH_LEVEL_CAP: usize = 256;

/// A deterministic KLL-style compacting quantile sketch: bounded memory
/// for month-scale streams, mergeable across recorders.
///
/// Values land in level 0 with weight 1. When a level fills, it is
/// sorted and every other element survives to the next level (weight
/// doubles); the surviving parity alternates per level on each
/// compaction instead of being chosen randomly, so the sketch is fully
/// deterministic — the same stream always yields the same summary.
/// Count, sum, min, and max are tracked exactly.
///
/// Accuracy: rank error is bounded by the compaction depth; with
/// 256-slot levels the empirical worst case across random and
/// adversarial streams (sorted, reversed, constant, organ-pipe,
/// alternating-extreme) stays below **2% of n** (see
/// `sketch_quantiles_within_bound_*` tests). Memory is `O(levels × 256)`
/// where levels grows logarithmically with n.
#[derive(Debug, Clone, Default)]
pub(crate) struct QuantileSketch {
    levels: Vec<Vec<f64>>,
    /// Per-level survivor parity, flipped on each compaction.
    parity: Vec<bool>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl QuantileSketch {
    /// Creates an empty sketch.
    pub(crate) fn new() -> Self {
        QuantileSketch {
            levels: vec![Vec::new()],
            parity: vec![false],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub(crate) fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.levels[0].push(x);
        if self.levels[0].len() >= SKETCH_LEVEL_CAP {
            self.compact(0);
        }
    }

    /// Sorts level `i`, promotes alternating survivors to level `i+1`,
    /// and cascades if that fills the next level.
    fn compact(&mut self, i: usize) {
        if self.levels.len() == i + 1 {
            self.levels.push(Vec::new());
            self.parity.push(false);
        }
        let mut buf = std::mem::take(&mut self.levels[i]);
        buf.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in quantile sketch"));
        let offset = usize::from(self.parity[i]);
        self.parity[i] = !self.parity[i];
        self.levels[i + 1].extend(buf.iter().skip(offset).step_by(2));
        if self.levels[i + 1].len() >= SKETCH_LEVEL_CAP {
            self.compact(i + 1);
        }
    }

    /// Number of observations (exact).
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation (exact), or `None` if empty.
    pub(crate) fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (exact), or `None` if empty.
    pub(crate) fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean (exact), or `None` if empty.
    pub(crate) fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`), or `None` if
    /// empty. `q = 0` and `q = 1` return the exact min/max.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return Some(self.min);
        }
        if q == 1.0 {
            return Some(self.max);
        }
        // Gather (value, weight) across levels; level i carries 2^i.
        let mut weighted: Vec<(f64, u64)> = Vec::new();
        for (i, level) in self.levels.iter().enumerate() {
            let w = 1u64 << i;
            weighted.extend(level.iter().map(|&v| (v, w)));
        }
        weighted.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN in quantile sketch"));
        let total: u64 = weighted.iter().map(|&(_, w)| w).sum();
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut acc = 0u64;
        for &(v, w) in &weighted {
            acc += w;
            if acc >= target {
                return Some(v);
            }
        }
        Some(self.max)
    }

    /// Merges another sketch into this one. Count/sum/min/max stay
    /// exact; rank error stays within the documented bound.
    pub(crate) fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (i, level) in other.levels.iter().enumerate() {
            while self.levels.len() <= i {
                self.levels.push(Vec::new());
                self.parity.push(false);
            }
            self.levels[i].extend_from_slice(level);
        }
        // Re-establish level caps bottom-up.
        let mut i = 0;
        while i < self.levels.len() {
            if self.levels[i].len() >= SKETCH_LEVEL_CAP {
                self.compact(i);
            }
            i += 1;
        }
    }
}

/// A fixed-width-bin histogram over `[lo, hi)` with overflow/underflow bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "histogram bounds inverted: [{lo}, {hi})");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// The left edge of bin `i`.
    pub(crate) fn bin_left(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + w * i as f64
    }

    /// Reads quantile `q` off the histogram as the right edge of the
    /// first bin whose CDF reaches `q`. Returns `None` when the
    /// histogram is empty, and the histogram's upper bound when the
    /// quantile lands in the overflow. Resolution is one bin width.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let cdf = self.cdf();
        Some(match cdf.iter().position(|&f| f >= q) {
            Some(i) => self.bin_left(i + 1),
            None => self.hi,
        })
    }

    /// Empirical CDF evaluated at each bin's *right* edge, as fractions in
    /// `[0, 1]`. Underflow counts toward every point; overflow toward none.
    pub(crate) fn cdf(&self) -> Vec<f64> {
        let mut acc = self.underflow;
        let total = self.count.max(1) as f64;
        self.bins
            .iter()
            .map(|&c| {
                acc += c;
                acc as f64 / total
            })
            .collect()
    }
}

/// A CDF over raw samples: returns `(value, fraction ≤ value)` pairs, one
/// per sample, as the paper's CDF figures plot.
pub fn empirical_cdf(mut samples: Vec<f64>) -> Vec<(f64, f64)> {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in CDF input"));
    let n = samples.len();
    samples
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n as f64))
        .collect()
}

/// Fraction of `samples` that are `<= threshold`; useful for reading CDF
/// points in tests ("at least 80% of tenants changed groups ≤ 8 times").
pub fn fraction_at_or_below(samples: &[f64], threshold: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|&&x| x <= threshold).count() as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Histogram {
        /// Raw bin counts (excluding under/overflow).
        fn bins(&self) -> &[u64] {
            &self.bins
        }

        /// Total number of observations (including under/overflow).
        fn count(&self) -> u64 {
            self.count
        }
    }

    impl QuantileSketch {
        /// Total retained samples across levels (for memory-bound tests).
        fn retained(&self) -> usize {
            self.levels.iter().map(Vec::len).sum()
        }

        /// Whether the sketch has seen no observations.
        fn is_empty(&self) -> bool {
            self.count == 0
        }
    }

    impl SortedSamples {
        /// Whether the set is empty.
        fn is_empty(&self) -> bool {
            self.values.is_empty()
        }

        /// Number of observations.
        fn len(&self) -> usize {
            self.values.len()
        }
    }

    impl Percentiles {
        /// Arithmetic mean of the retained values, or `None` if empty.
        fn mean(&self) -> Option<f64> {
            if self.values.is_empty() {
                None
            } else {
                Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
            }
        }

        /// Convenience wrapper for the 99th percentile.
        fn p99(&mut self) -> Option<f64> {
            self.quantile(0.99)
        }
    }

    impl StreamingStats {
        /// Largest observation, or -∞ if empty.
        fn max(&self) -> f64 {
            self.max
        }

        /// Number of observations so far.
        fn count(&self) -> u64 {
            self.count
        }
    }

    #[test]
    fn streaming_stats_basics() {
        let mut s = StreamingStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = StreamingStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let mut p = Percentiles::new();
        p.extend((1..=100).map(|i| i as f64));
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.quantile(1.0), Some(100.0));
        let median = p.quantile(0.5).unwrap();
        assert!((median - 50.5).abs() < 1e-9);
        let p99 = p.p99().unwrap();
        assert!((p99 - 99.01).abs() < 1e-9);
    }

    #[test]
    fn percentiles_single_and_empty() {
        let mut p = Percentiles::new();
        assert_eq!(p.quantile(0.5), None);
        p.push(42.0);
        assert_eq!(p.quantile(0.99), Some(42.0));
        assert_eq!(p.mean(), Some(42.0));
    }

    #[test]
    fn histogram_binning_and_cdf() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        h.push(-1.0); // underflow
        h.push(99.0); // overflow
        assert_eq!(h.count(), 12);
        assert!(h.bins().iter().all(|&c| c == 1));
        let cdf = h.cdf();
        // Last in-range point covers underflow + all 10 bins = 11/12.
        assert!((cdf[9] - 11.0 / 12.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]), "CDF not monotone");
    }

    #[test]
    fn histogram_quantile_reads_bin_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        // Median of 10 uniform points: right edge of the 5th bin.
        assert_eq!(h.quantile(0.5), Some(5.0));
        assert_eq!(h.quantile(1.0), Some(10.0));
        // Overflow-heavy histogram: quantile lands at the upper bound.
        let mut o = Histogram::new(0.0, 1.0, 4);
        o.push(0.5);
        o.push(50.0);
        assert_eq!(o.quantile(0.99), Some(1.0));
        // Empty histogram has no quantiles.
        assert_eq!(Histogram::new(0.0, 1.0, 4).quantile(0.5), None);
    }

    #[test]
    fn empirical_cdf_is_monotone() {
        let cdf = empirical_cdf(vec![3.0, 1.0, 2.0, 2.0]);
        assert_eq!(cdf.first().unwrap().0, 1.0);
        assert_eq!(cdf.last().unwrap().1, 1.0);
        assert!(cdf.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    }

    #[test]
    fn fraction_at_or_below_counts() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(fraction_at_or_below(&xs, 2.5), 0.5);
        assert_eq!(fraction_at_or_below(&xs, 0.0), 0.0);
        assert_eq!(fraction_at_or_below(&[], 1.0), 0.0);
    }

    #[test]
    fn sorted_samples_match_percentiles() {
        let mut p = Percentiles::new();
        p.extend((1..=100).rev().map(|i| i as f64));
        let mut q = p.clone();
        let frozen = p.freeze();
        for quant in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(frozen.quantile(quant), q.quantile(quant));
        }
        assert_eq!(frozen.p99(), q.p99());
        assert_eq!(frozen.mean(), q.mean());
        assert_eq!(frozen.len(), 100);
        assert!(!frozen.is_empty());
        assert!(SortedSamples::default().quantile(0.5).is_none());
    }

    /// Asserts every sketch quantile lands within `bound_frac · n` ranks
    /// of the exact answer on `data`.
    fn assert_sketch_close(data: &[f64], bound_frac: f64, label: &str) {
        let mut sketch = QuantileSketch::new();
        for &x in data {
            sketch.push(x);
        }
        let mut sorted = data.to_vec();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let n = data.len() as f64;
        assert_eq!(sketch.count(), data.len() as u64, "{label}: count");
        assert_eq!(sketch.min(), sorted.first().copied(), "{label}: min");
        assert_eq!(sketch.max(), sorted.last().copied(), "{label}: max");
        let exact_mean = data.iter().sum::<f64>() / n;
        assert!(
            (sketch.mean().unwrap() - exact_mean).abs() <= 1e-6 * exact_mean.abs().max(1.0),
            "{label}: mean"
        );
        for q in [0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let est = sketch.quantile(q).unwrap();
            // Rank interval the estimate occupies in the exact data.
            let rank_lo = sorted.partition_point(|&x| x < est) as f64;
            let rank_hi = sorted.partition_point(|&x| x <= est) as f64;
            let target = q * n;
            let err = if target < rank_lo {
                rank_lo - target
            } else if target > rank_hi {
                target - rank_hi
            } else {
                0.0
            };
            assert!(
                err <= bound_frac * n + 2.0,
                "{label}: q={q} estimate {est} off by {err:.0} ranks (bound {:.0})",
                bound_frac * n
            );
        }
    }

    #[test]
    fn sketch_quantiles_within_bound_random() {
        // splitmix64-driven uniform and heavy-tailed streams.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            crate::rng::splitmix64(state)
        };
        let uniform: Vec<f64> = (0..200_000)
            .map(|_| next() as f64 / u64::MAX as f64)
            .collect();
        assert_sketch_close(&uniform, 0.02, "uniform");
        let heavy: Vec<f64> = (0..200_000)
            .map(|_| {
                let u = (next() as f64 / u64::MAX as f64).max(1e-12);
                1.0 / u.powf(0.7)
            })
            .collect();
        assert_sketch_close(&heavy, 0.02, "heavy-tailed");
    }

    #[test]
    fn sketch_quantiles_within_bound_adversarial() {
        let n = 200_000usize;
        let asc: Vec<f64> = (0..n).map(|i| i as f64).collect();
        assert_sketch_close(&asc, 0.02, "sorted ascending");
        let desc: Vec<f64> = (0..n).map(|i| (n - i) as f64).collect();
        assert_sketch_close(&desc, 0.02, "sorted descending");
        let constant = vec![7.5; n];
        assert_sketch_close(&constant, 0.02, "constant");
        let organ_pipe: Vec<f64> = (0..n)
            .map(|i| if i < n / 2 { i as f64 } else { (n - i) as f64 })
            .collect();
        assert_sketch_close(&organ_pipe, 0.02, "organ pipe");
        let alternating: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { -1e9 } else { 1e9 })
            .collect();
        assert_sketch_close(&alternating, 0.02, "alternating extremes");
    }

    #[test]
    fn sketch_memory_is_bounded() {
        let mut s = QuantileSketch::new();
        for i in 0..1_000_000u64 {
            s.push(i as f64);
        }
        // log2(1e6 / 256) ≈ 12 levels of ≤ 256 slots each.
        assert!(s.retained() < 16 * SKETCH_LEVEL_CAP, "{}", s.retained());
        assert_eq!(s.count(), 1_000_000);
    }

    #[test]
    fn sketch_merge_matches_single_stream() {
        let data: Vec<f64> = (0..100_000).map(|i| ((i * 37) % 1_000) as f64).collect();
        let mut whole = QuantileSketch::new();
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for (i, &x) in data.iter().enumerate() {
            whole.push(x);
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        let mut sorted = data.clone();
        sorted.sort_unstable_by(|x, y| x.partial_cmp(y).unwrap());
        let n = data.len() as f64;
        for q in [0.1, 0.5, 0.9, 0.99] {
            let est = a.quantile(q).unwrap();
            let rank = sorted.partition_point(|&x| x <= est) as f64;
            assert!(
                (rank - q * n).abs() <= 0.03 * n + 2.0,
                "merged q={q}: rank {rank} vs target {:.0}",
                q * n
            );
        }
    }

    #[test]
    fn sketch_empty_and_tiny() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
        let mut one = QuantileSketch::new();
        one.push(3.0);
        assert_eq!(one.quantile(0.5), Some(3.0));
        assert_eq!(one.quantile(0.0), Some(3.0));
        assert_eq!(one.quantile(1.0), Some(3.0));
    }
}
