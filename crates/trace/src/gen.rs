//! Utilization-trace generators for the three tenant patterns.
//!
//! §3.2: "user-facing primary tenants often exhibit periodic utilization
//! (e.g., high during the day and low at night), whereas non-user-facing
//! (e.g., Web crawling, batch data analytics) or non-production (e.g.,
//! development, testing) primary tenants often do not. For example, a Web
//! crawling or data scrubber tenant may exhibit (roughly) constant
//! utilization, whereas a testing tenant often exhibits unpredictable
//! utilization behavior."

use std::sync::Arc;

use harvest_signal::classify::UtilizationPattern;
use harvest_sim::dist;
use rand::Rng;

use crate::timeseries::TimeSeries;
use crate::{SAMPLES_PER_DAY, SAMPLE_INTERVAL};

/// Diurnal generator for user-facing (periodic) tenants.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodicGen {
    /// Mean utilization level.
    pub base: f64,
    /// Amplitude of the diurnal swing (peak-to-mean).
    pub amplitude: f64,
    /// Phase offset in samples (which hour the peak falls on).
    pub phase: f64,
    /// Multiplier applied to the amplitude on weekends.
    pub weekend_factor: f64,
    /// Standard deviation of per-sample noise.
    pub noise_std: f64,
    /// Expected number of short load spikes per day.
    pub spikes_per_day: f64,
    /// Magnitude of a load spike (added to the level).
    pub spike_magnitude: f64,
}

/// Flat generator for always-on (constant) tenants.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstantGen {
    /// Utilization level.
    pub level: f64,
    /// Standard deviation of per-sample noise (small by definition).
    pub noise_std: f64,
}

/// Mean-reverting random-walk generator (Ornstein–Uhlenbeck with jumps)
/// for development/testing (unpredictable) tenants.
#[derive(Debug, Clone, PartialEq)]
pub struct UnpredictableGen {
    /// Long-run mean the walk reverts to.
    pub mean: f64,
    /// Mean-reversion strength per sample (0 = pure random walk).
    pub reversion: f64,
    /// Per-sample volatility.
    pub volatility: f64,
    /// Expected number of level jumps per day (redeploys, test runs).
    pub jumps_per_day: f64,
    /// Maximum jump magnitude (uniform in `[-max, max]`).
    pub jump_max: f64,
}

/// A utilization generator of any pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum UtilGen {
    /// Diurnal user-facing tenant.
    Periodic(PeriodicGen),
    /// Flat always-on tenant.
    Constant(ConstantGen),
    /// Random-walk development/testing tenant.
    Unpredictable(UnpredictableGen),
}

impl UtilGen {
    /// The pattern this generator is designed to produce.
    pub fn intended_pattern(&self) -> UtilizationPattern {
        match self {
            UtilGen::Periodic(_) => UtilizationPattern::Periodic,
            UtilGen::Constant(_) => UtilizationPattern::Constant,
            UtilGen::Unpredictable(_) => UtilizationPattern::Unpredictable,
        }
    }

    /// Generates `samples` two-minute samples of utilization, written
    /// straight into the series' shared buffer.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, samples: usize) -> TimeSeries {
        let values = match self {
            UtilGen::Periodic(g) => g.generate_values(rng, samples),
            UtilGen::Constant(g) => g.generate_values(rng, samples),
            UtilGen::Unpredictable(g) => g.generate_values(rng, samples),
        };
        TimeSeries::from_shared(SAMPLE_INTERVAL, values)
    }
}

impl PeriodicGen {
    fn generate_values<R: Rng + ?Sized>(&self, rng: &mut R, samples: usize) -> Arc<[f64]> {
        let spike_prob = self.spikes_per_day / SAMPLES_PER_DAY as f64;
        let mut spike_left = 0usize;
        (0..samples)
            .map(|i| {
                let day = i / SAMPLES_PER_DAY;
                let weekend = day % 7 >= 5;
                let amp = if weekend {
                    self.amplitude * self.weekend_factor
                } else {
                    self.amplitude
                };
                let angle =
                    2.0 * std::f64::consts::PI * (i as f64 + self.phase) / SAMPLES_PER_DAY as f64;
                let mut v = self.base + amp * angle.sin();
                if spike_left > 0 {
                    spike_left -= 1;
                    v += self.spike_magnitude;
                } else if dist::bernoulli(rng, spike_prob) {
                    // Spikes last 2–10 samples (4–20 minutes).
                    spike_left = 2 + (dist::uniform(rng, 0.0, 8.0) as usize);
                    v += self.spike_magnitude;
                }
                v += dist::normal(rng, 0.0, self.noise_std);
                v.clamp(0.0, 1.0)
            })
            .collect()
    }
}

impl ConstantGen {
    fn generate_values<R: Rng + ?Sized>(&self, rng: &mut R, samples: usize) -> Arc<[f64]> {
        (0..samples)
            .map(|_| (self.level + dist::normal(rng, 0.0, self.noise_std)).clamp(0.0, 1.0))
            .collect()
    }
}

impl UnpredictableGen {
    fn generate_values<R: Rng + ?Sized>(&self, rng: &mut R, samples: usize) -> Arc<[f64]> {
        let jump_prob = self.jumps_per_day / SAMPLES_PER_DAY as f64;
        let mut level = self.mean;
        (0..samples)
            .map(|_| {
                level += self.reversion * (self.mean - level);
                level += dist::normal(rng, 0.0, self.volatility);
                if dist::bernoulli(rng, jump_prob) {
                    level += dist::uniform(rng, -self.jump_max, self.jump_max);
                }
                level = level.clamp(0.0, 1.0);
                level
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SAMPLES_PER_MONTH;
    use harvest_signal::classify::{classify, ClassifierConfig};
    use harvest_sim::rng::stream_rng;

    fn month<R: Rng>(g: &UtilGen, rng: &mut R) -> TimeSeries {
        g.generate(rng, SAMPLES_PER_MONTH)
    }

    fn periodic() -> UtilGen {
        UtilGen::Periodic(PeriodicGen {
            base: 0.40,
            amplitude: 0.20,
            phase: 0.0,
            weekend_factor: 0.7,
            noise_std: 0.02,
            spikes_per_day: 1.0,
            spike_magnitude: 0.10,
        })
    }

    fn constant() -> UtilGen {
        UtilGen::Constant(ConstantGen {
            level: 0.55,
            noise_std: 0.02,
        })
    }

    fn unpredictable() -> UtilGen {
        UtilGen::Unpredictable(UnpredictableGen {
            mean: 0.35,
            reversion: 0.003,
            volatility: 0.015,
            jumps_per_day: 2.0,
            jump_max: 0.35,
        })
    }

    #[test]
    fn generators_classify_as_intended() {
        let cfg = ClassifierConfig::default();
        for (name, g) in [
            ("periodic", periodic()),
            ("constant", constant()),
            ("unpredictable", unpredictable()),
        ] {
            let mut rng = stream_rng(1234, name);
            let ts = month(&g, &mut rng);
            let got = classify(ts.values(), &cfg);
            assert_eq!(got, g.intended_pattern(), "{name} misclassified as {got}");
        }
    }

    #[test]
    fn values_stay_in_unit_interval() {
        for (name, g) in [
            ("periodic", periodic()),
            ("constant", constant()),
            ("unpredictable", unpredictable()),
        ] {
            let mut rng = stream_rng(5, name);
            let ts = month(&g, &mut rng);
            assert!(
                ts.values().iter().all(|&v| (0.0..=1.0).contains(&v)),
                "{name} escaped [0,1]"
            );
        }
    }

    #[test]
    fn periodic_mean_near_base() {
        let mut rng = stream_rng(7, "p");
        let ts = month(&periodic(), &mut rng);
        assert!((ts.mean() - 0.40).abs() < 0.05, "mean {}", ts.mean());
    }

    #[test]
    fn constant_has_low_cv() {
        let mut rng = stream_rng(7, "c");
        let ts = month(&constant(), &mut rng);
        assert!(ts.cv() < 0.08, "cv {}", ts.cv());
    }

    #[test]
    fn unpredictable_has_high_variation_without_periodicity() {
        let mut rng = stream_rng(7, "u");
        let ts = month(&unpredictable(), &mut rng);
        assert!(ts.cv() > 0.10, "cv {}", ts.cv());
    }

    #[test]
    fn weekend_amplitude_is_damped() {
        let g = PeriodicGen {
            base: 0.5,
            amplitude: 0.3,
            phase: 0.0,
            weekend_factor: 0.3,
            noise_std: 0.0,
            spikes_per_day: 0.0,
            spike_magnitude: 0.0,
        };
        let mut rng = stream_rng(7, "w");
        let values = g.generate_values(&mut rng, 7 * SAMPLES_PER_DAY);
        let weekday_peak = values[..SAMPLES_PER_DAY]
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        let weekend_peak = values[5 * SAMPLES_PER_DAY..6 * SAMPLES_PER_DAY]
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        assert!(weekday_peak > weekend_peak + 0.1);
    }

    #[test]
    fn generation_is_deterministic() {
        let g = unpredictable();
        let a = month(&g, &mut stream_rng(9, "x"));
        let b = month(&g, &mut stream_rng(9, "x"));
        assert_eq!(a, b);
    }
}
