//! Regularly-sampled utilization time series.

use std::sync::Arc;

use harvest_sim::{SimDuration, SimTime};

/// A utilization trace sampled on a fixed interval.
///
/// Values are fractions in `[0, 1]`. Lookups past the end wrap around, so
/// a one-month trace can drive a simulation of any length (the paper's
/// durability simulations run for a year against monthly utilization
/// patterns).
///
/// The samples live in one immutable shared buffer: cloning a series
/// (or a datacenter, or a utilization view holding it) bumps a
/// reference count and copies no samples. A month-long trace is
/// 21,600 samples (169 KB), and full-size DC-9 holds 520 of them, so
/// every transform — scaling included — either reads the shared
/// samples in place or builds a new series. [`TimeSeries::new`] copies
/// a `Vec` into the buffer once. The generators and this module's own
/// constructors collect an exactly-sized iterator (a `map` over a range
/// or a slice) into an `Arc<[f64]>` instead, which fills the buffer in
/// place with no intermediate `Vec`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    interval: SimDuration,
    values: Arc<[f64]>,
}

impl TimeSeries {
    /// Creates a series from raw samples, copied once into a shared
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or `interval` is zero.
    pub fn new(interval: SimDuration, values: Vec<f64>) -> Self {
        TimeSeries::from_shared(interval, values.into())
    }

    /// Creates a series over a shared buffer of samples, without a copy.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or `interval` is zero.
    pub(crate) fn from_shared(interval: SimDuration, values: Arc<[f64]>) -> Self {
        assert!(!values.is_empty(), "time series needs at least one sample");
        assert!(
            interval > SimDuration::ZERO,
            "time series interval must be positive"
        );
        TimeSeries { interval, values }
    }

    /// Creates a constant series of `len` samples.
    pub fn constant(interval: SimDuration, level: f64, len: usize) -> Self {
        TimeSeries::from_shared(interval, std::iter::repeat_n(level, len).collect())
    }

    /// The sampling interval.
    #[inline]
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty (never true for a constructed series).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw samples.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The sample covering instant `t`, wrapping past the end.
    #[inline]
    pub fn at(&self, t: SimTime) -> f64 {
        let idx = (t.as_millis() / self.interval.as_millis()) as usize;
        self.values[idx % self.values.len()]
    }

    /// The sample at slot `slot` (a slot is one interval), wrapping —
    /// identical to [`TimeSeries::at`] for any instant inside the slot.
    #[inline]
    pub fn at_slot(&self, slot: u64) -> f64 {
        self.values[(slot % self.values.len() as u64) as usize]
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Maximum sample.
    pub fn peak(&self) -> f64 {
        self.values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Population standard deviation of the samples.
    pub(crate) fn std_dev(&self) -> f64 {
        let mean = self.mean();
        let var =
            self.values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / self.values.len() as f64;
        var.sqrt()
    }

    /// Coefficient of variation (σ/μ), 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m.abs() < 1e-12 {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// Returns a copy transformed sample-wise by `f`, clamped to `[0, 1]`.
    pub(crate) fn map_clamped(&self, f: impl Fn(f64) -> f64) -> TimeSeries {
        TimeSeries {
            interval: self.interval,
            values: self.values.iter().map(|&v| f(v).clamp(0.0, 1.0)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mins(m: u64) -> SimDuration {
        SimDuration::from_mins(m)
    }

    #[test]
    fn basic_stats() {
        let ts = TimeSeries::new(mins(2), vec![0.2, 0.4, 0.6, 0.8]);
        assert!((ts.mean() - 0.5).abs() < 1e-12);
        assert_eq!(ts.peak(), 0.8);
        assert!(ts.std_dev() > 0.0);
        assert_eq!(ts.len(), 4);
    }

    #[test]
    fn lookup_and_wrap() {
        let ts = TimeSeries::new(mins(2), vec![0.1, 0.2, 0.3]);
        assert_eq!(ts.at(SimTime::ZERO), 0.1);
        assert_eq!(ts.at(SimTime::from_secs(121)), 0.2);
        // Wraps after 6 minutes.
        assert_eq!(ts.at(SimTime::from_secs(6 * 60)), 0.1);
    }

    #[test]
    fn slot_lookup_matches_time_lookup() {
        let ts = TimeSeries::new(mins(2), vec![0.1, 0.2, 0.2, 0.4]);
        for slot in 0..10u64 {
            let t = SimTime::from_millis(slot * mins(2).as_millis() + 1);
            assert_eq!(ts.at_slot(slot).to_bits(), ts.at(t).to_bits());
        }
    }

    #[test]
    fn span_and_interval() {
        // 720 two-minute samples span one day: lookups wrap there.
        let ts = TimeSeries::new(mins(2), (0..720).map(|i| i as f64 / 720.0).collect());
        assert_eq!(ts.interval(), mins(2));
        let day = SimTime::ZERO + SimDuration::from_days(1);
        assert_eq!(
            ts.at(SimTime::from_millis(day.as_millis() - 1)),
            719.0 / 720.0
        );
        assert_eq!(ts.at(day), 0.0);
    }

    #[test]
    fn map_clamps() {
        let ts = TimeSeries::new(mins(2), vec![0.5, 0.9]);
        let scaled = ts.map_clamped(|v| v * 2.0);
        assert_eq!(scaled.values(), &[1.0, 1.0]);
    }

    #[test]
    fn cv_of_constant_is_zero() {
        let ts = TimeSeries::constant(mins(2), 0.7, 100);
        // The mean accumulates round-off, so allow a tiny epsilon.
        assert!(ts.cv() < 1e-9, "cv {}", ts.cv());
        let zero = TimeSeries::constant(mins(2), 0.0, 100);
        assert_eq!(zero.cv(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_series_panics() {
        TimeSeries::new(mins(2), vec![]);
    }
}
