//! Simulated time with millisecond resolution.
//!
//! All simulations in the workspace use integer milliseconds internally so
//! that event ordering is exact (no floating-point comparison hazards) and
//! simulations replay identically for a given seed.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An instant on the simulated clock, in milliseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant (used as an "infinitely far" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates an instant from whole seconds since simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000)
    }

    /// Returns the instant as raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Returns the instant as whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the instant as fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// millisecond and saturating below at zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 || !secs.is_finite() {
            return SimDuration(0);
        }
        SimDuration((secs * 1_000.0).round() as u64)
    }

    /// Returns the duration as raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Returns the duration as whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration as fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// Multiplies the duration by a non-negative factor, rounding to the
    /// nearest millisecond.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "duration factor must be non-negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Integer division of two durations (how many `other` fit in `self`).
    pub fn div_duration(self, other: SimDuration) -> u64 {
        assert!(other.0 > 0, "division by zero-length duration");
        self.0 / other.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_secs = self.0 / 1_000;
        let (d, rem) = (total_secs / 86_400, total_secs % 86_400);
        let (h, rem) = (rem / 3_600, rem % 3_600);
        let (m, s) = (rem / 60, rem % 60);
        if d > 0 {
            write!(f, "{d}d{h:02}:{m:02}:{s:02}")
        } else {
            write!(f, "{h:02}:{m:02}:{s:02}")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(5).as_millis(), 5_000);
        assert_eq!(SimDuration::from_mins(2).as_secs(), 120);
        assert_eq!(SimDuration::from_hours(1).as_millis(), 3_600_000);
        assert_eq!(SimDuration::from_days(30).as_hours_f64(), 720.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t.as_secs(), 15);
        assert_eq!(t.since(SimTime::from_secs(12)).as_secs(), 3);
        // `since` saturates rather than underflowing.
        assert_eq!(t.since(SimTime::from_secs(100)), SimDuration::ZERO);
    }

    #[test]
    fn fractional_seconds() {
        let d = SimDuration::from_secs_f64(1.2345);
        assert_eq!(d.as_millis(), 1_235);
        assert_eq!(SimDuration::from_secs_f64(-4.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn mul_and_div() {
        let d = SimDuration::from_secs(100).mul_f64(0.5);
        assert_eq!(d.as_secs(), 50);
        assert_eq!(
            SimDuration::from_hours(2).div_duration(SimDuration::from_mins(30)),
            4
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(3_661).to_string(), "01:01:01");
        assert_eq!(
            (SimTime::ZERO + SimDuration::from_days(2)).to_string(),
            "2d00:00:00"
        );
    }
}
