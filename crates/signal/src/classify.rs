//! The three-way utilization-pattern classifier.
//!
//! §3.2 of the paper: "We identify three main classes of primary tenants:
//! periodic, unpredictable, and (roughly) constant." User-facing tenants
//! tend to be periodic (diurnal), crawlers/scrubbers roughly constant, and
//! development/testing tenants unpredictable.

use crate::features::{moments, TraceFeatures};
use crate::spectrum::{periodicity_strength_with, SpectrumScratch};

/// A primary tenant's utilization trend class (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UtilizationPattern {
    /// Utilization repeats on a (typically diurnal) cycle — user-facing
    /// services with daytime peaks and nighttime valleys.
    Periodic,
    /// Utilization is roughly flat over time — crawlers, data scrubbers,
    /// always-on pipelines.
    Constant,
    /// Utilization moves with no repeating structure — development,
    /// testing, bursty internal workloads.
    Unpredictable,
}

impl UtilizationPattern {
    /// All patterns, in the paper's presentation order.
    pub const ALL: [UtilizationPattern; 3] = [
        UtilizationPattern::Periodic,
        UtilizationPattern::Constant,
        UtilizationPattern::Unpredictable,
    ];

    /// A short lowercase label for reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            UtilizationPattern::Periodic => "periodic",
            UtilizationPattern::Constant => "constant",
            UtilizationPattern::Unpredictable => "unpredictable",
        }
    }
}

impl std::fmt::Display for UtilizationPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Thresholds for the pattern classifier.
#[derive(Debug, Clone, Copy)]
pub struct ClassifierConfig {
    /// Coefficient of variation at or below which a trace is *constant*.
    pub constant_cv_max: f64,
    /// Periodicity strength at or above which a non-constant trace is
    /// *periodic* (fraction of non-DC power at the fundamental and
    /// harmonics; see [`periodicity_strength_with`]).
    pub periodic_strength_min: f64,
    /// The candidate period, in samples (720 for a diurnal cycle sampled
    /// every two minutes).
    pub period_samples: f64,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        ClassifierConfig {
            constant_cv_max: 0.10,
            periodic_strength_min: 0.15,
            period_samples: 720.0,
        }
    }
}

/// Classifies a utilization trace into its pattern.
///
/// The decision mirrors §3.2/§4.1: traces whose variation is negligible
/// relative to their level are *constant*; otherwise the FFT decides
/// between *periodic* (strong signal at the diurnal frequency, as in
/// Figure 1b) and *unpredictable* (energy spread across low frequencies,
/// as in Figure 1d).
pub fn classify(values: &[f64], config: &ClassifierConfig) -> UtilizationPattern {
    classify_with(values, config, &mut SpectrumScratch::new())
}

/// [`classify`] with caller-owned FFT scratch buffers, so a sweep over
/// thousands of tenant traces reuses one spectrum allocation per worker
/// instead of allocating per trace. Results are identical to
/// [`classify`] bit for bit.
pub fn classify_with(
    values: &[f64],
    config: &ClassifierConfig,
    scratch: &mut SpectrumScratch,
) -> UtilizationPattern {
    let (mean, _, std_dev) = moments(values);
    decide(values.len(), mean, std_dev, config, || {
        periodicity_strength_with(values, config.period_samples, scratch)
    })
}

/// Classifies a trace and extracts its K-Means features (at the
/// classifier's period) from one set of moments and one spectrum.
///
/// Returns exactly `classify_with(values, config, _)` and
/// `TraceFeatures::extract(values, config.period_samples)`, bit for
/// bit; the clustering service needs both per tenant, and each alone
/// would take its own FFT of the same trace.
pub fn classify_with_features(
    values: &[f64],
    config: &ClassifierConfig,
    scratch: &mut SpectrumScratch,
) -> (UtilizationPattern, TraceFeatures) {
    let f = TraceFeatures::extract_with(values, config.period_samples, scratch);
    let pattern = decide(values.len(), f.mean, f.std_dev, config, || {
        f.diurnal_strength
    });
    (pattern, f)
}

/// The classifier's thresholds applied to a trace's length, moments and
/// (only when the variation test leaves it open) periodicity strength.
fn decide(
    len: usize,
    mean: f64,
    std_dev: f64,
    config: &ClassifierConfig,
    strength: impl FnOnce() -> f64,
) -> UtilizationPattern {
    if len < 8 {
        return UtilizationPattern::Unpredictable;
    }
    // An all-idle tenant is trivially constant; guard the division.
    let cv = if mean.abs() < 1e-9 {
        0.0
    } else {
        std_dev / mean
    };
    if cv <= config.constant_cv_max {
        return UtilizationPattern::Constant;
    }
    if strength() >= config.periodic_strength_min {
        UtilizationPattern::Periodic
    } else {
        UtilizationPattern::Unpredictable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPD: usize = 720; // samples per day at two-minute resolution

    fn cfg() -> ClassifierConfig {
        ClassifierConfig::default()
    }

    fn noise(i: usize) -> f64 {
        ((i as f64 * 12.9898).sin() * 43_758.547).fract() - 0.5
    }

    #[test]
    fn flat_trace_is_constant() {
        let trace: Vec<f64> = (0..30 * SPD).map(|i| 0.45 + 0.01 * noise(i)).collect();
        assert_eq!(classify(&trace, &cfg()), UtilizationPattern::Constant);
    }

    #[test]
    fn idle_trace_is_constant() {
        let trace = vec![0.0; 30 * SPD];
        assert_eq!(classify(&trace, &cfg()), UtilizationPattern::Constant);
    }

    #[test]
    fn diurnal_trace_is_periodic() {
        let trace: Vec<f64> = (0..30 * SPD)
            .map(|i| {
                let phase = 2.0 * std::f64::consts::PI * i as f64 / SPD as f64;
                0.4 + 0.25 * phase.sin() + 0.03 * noise(i)
            })
            .collect();
        assert_eq!(classify(&trace, &cfg()), UtilizationPattern::Periodic);
    }

    #[test]
    fn random_walk_is_unpredictable() {
        let mut level = 0.5f64;
        let trace: Vec<f64> = (0..30 * SPD)
            .map(|i| {
                level = (level + 0.02 * noise(i * 7 + 3)).clamp(0.05, 0.95);
                level
            })
            .collect();
        assert_eq!(classify(&trace, &cfg()), UtilizationPattern::Unpredictable);
    }

    #[test]
    fn short_trace_falls_back_to_unpredictable() {
        assert_eq!(
            classify(&[0.1, 0.2], &cfg()),
            UtilizationPattern::Unpredictable
        );
    }

    #[test]
    fn one_pass_matches_classify_and_extract_bitwise() {
        let diurnal: Vec<f64> = (0..30 * SPD)
            .map(|i| {
                let phase = 2.0 * std::f64::consts::PI * i as f64 / SPD as f64;
                0.4 + 0.25 * phase.sin() + 0.03 * noise(i)
            })
            .collect();
        let mut level = 0.5f64;
        let walk: Vec<f64> = (0..30 * SPD)
            .map(|i| {
                level = (level + 0.02 * noise(i * 7 + 3)).clamp(0.05, 0.95);
                level
            })
            .collect();
        let flat: Vec<f64> = (0..30 * SPD).map(|i| 0.45 + 0.01 * noise(i)).collect();
        use UtilizationPattern::{Constant, Periodic, Unpredictable};
        let traces: [(&str, Vec<f64>, UtilizationPattern); 6] = [
            ("empty", Vec::new(), Unpredictable),
            ("short", vec![0.1, 0.7, 0.3], Unpredictable),
            ("idle", vec![0.0; 4 * SPD], Constant),
            ("constant", flat, Constant),
            ("periodic", diurnal, Periodic),
            ("unpredictable", walk, Unpredictable),
        ];
        // One scratch through every trace, as the clustering service
        // uses it.
        let mut scratch = SpectrumScratch::new();
        for (name, trace, expect) in &traces {
            let (pattern, features) = classify_with_features(trace, &cfg(), &mut scratch);
            assert_eq!(pattern, classify(trace, &cfg()), "{name}");
            assert_eq!(pattern, *expect, "{name}");
            let reference = TraceFeatures::extract(trace, cfg().period_samples);
            let bits =
                |f: TraceFeatures| f.to_vec().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(features), bits(reference), "{name}");
            assert!(
                features.to_vec().iter().all(|x| !x.is_nan()),
                "{name}: NaN feature {features:?}"
            );
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(UtilizationPattern::Periodic.label(), "periodic");
        assert_eq!(UtilizationPattern::Constant.to_string(), "constant");
        assert_eq!(UtilizationPattern::ALL.len(), 3);
    }
}
