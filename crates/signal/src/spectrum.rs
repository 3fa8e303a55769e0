//! Power spectra and periodicity measures for utilization traces.
//!
//! The classifier needs two spectral quantities: how much of a trace's
//! energy sits at the diurnal frequency and its harmonics (periodicity
//! strength, cf. Figure 1b's spike at frequency 31 for a 31-day month),
//! and how "noise-like" the spectrum is overall (spectral flatness, cf.
//! Figure 1d's decaying profile).

use crate::complex::Complex;
use crate::fft::Fft;

/// Reusable state for spectral analysis.
///
/// A spectrum needs the FFT's plan (every stage's twiddles), its two
/// split-complex buffers, the power vector and a Hann window (a `sin`
/// per sample). A classification sweep over
/// hundreds of equal-length tenant traces builds the plan and the
/// window once and allocates nothing after the first trace, provided
/// each worker carries one scratch and threads it through every call.
/// The plan and the window are kept for the last truncated length and
/// rebuilt, from the same recurrence and formula, whenever it changes;
/// the buffers and powers are fully overwritten by every call. So reuse
/// never changes a result.
#[derive(Debug, Default)]
pub struct SpectrumScratch {
    fft: Fft,
    powers: Vec<f64>,
    /// The Hann window of the last truncated length (`window.len()`).
    window: Vec<f64>,
}

impl SpectrumScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// The powers the last [`power_spectrum_truncated_into`] call left
    /// (`n / 2 + 1` of them for truncated length `n`).
    pub fn powers(&self) -> &[f64] {
        &self.powers
    }
}

/// Power spectrum (`|X[k]|²`) of the non-redundant half of a real signal.
///
/// The signal is mean-subtracted (so the DC level and its window leakage do
/// not pollute low bins), Hann-windowed, and *truncated* to the largest
/// power-of-two prefix (rather than zero-padded) so bin positions stay
/// meaningful and leakage is controlled. Bin `k` corresponds to frequency
/// `k / (n · dt)` where `n` is the truncated length.
///
/// Returns `(powers, n)` where `powers.len() == n / 2 + 1`.
pub fn power_spectrum_truncated(signal: &[f64]) -> (Vec<f64>, usize) {
    let mut scratch = SpectrumScratch::new();
    let n = power_spectrum_truncated_into(signal, &mut scratch);
    (std::mem::take(&mut scratch.powers), n)
}

/// [`power_spectrum_truncated`] into reusable scratch buffers.
///
/// Returns the truncated length `n`; the powers (`n / 2 + 1` of them)
/// are left in the scratch, read through [`SpectrumScratch::powers`].
pub fn power_spectrum_truncated_into(signal: &[f64], scratch: &mut SpectrumScratch) -> usize {
    assert!(!signal.is_empty(), "cannot take spectrum of empty signal");
    let n = if signal.len().is_power_of_two() {
        signal.len()
    } else {
        (signal.len() + 1).next_power_of_two() / 2
    };
    let n = n.max(1);
    let mean = signal[..n].iter().sum::<f64>() / n as f64;
    if scratch.window.len() != n {
        scratch.window.clear();
        scratch.window.extend((0..n).map(|i| hann(i, n)));
    }
    let window = &scratch.window;
    let (re, im) = scratch.fft.run(n, false, |j| {
        Complex::from_real((signal[j] - mean) * window[j])
    });
    let half = n / 2;
    scratch.powers.clear();
    scratch.powers.extend(
        re[..=half]
            .iter()
            .zip(&im[..=half])
            .map(|(&r, &i)| Complex::new(r, i).norm_sqr()),
    );
    n
}

fn hann(i: usize, n: usize) -> f64 {
    if n <= 1 {
        return 1.0;
    }
    let x = std::f64::consts::PI * i as f64 / (n - 1) as f64;
    x.sin().powi(2)
}

/// How strongly a trace repeats with the given period, in `[0, 1]`.
///
/// Computes the fraction of non-DC spectral power that falls within ±2 bins
/// of the fundamental at `period_samples` and its first three harmonics.
/// Values near 1 mean nearly all variation is at that period; values near 0
/// mean none is.
///
/// `period_samples` is the period expressed in samples (e.g. a diurnal
/// cycle on a two-minute grid is 720 samples).
pub fn periodicity_strength(signal: &[f64], period_samples: f64) -> f64 {
    periodicity_strength_with(signal, period_samples, &mut SpectrumScratch::new())
}

/// [`periodicity_strength`] with caller-owned scratch buffers, for hot
/// loops classifying many traces.
pub fn periodicity_strength_with(
    signal: &[f64],
    period_samples: f64,
    scratch: &mut SpectrumScratch,
) -> f64 {
    if signal.len() < 8 || period_samples <= 0.0 {
        return 0.0;
    }
    let n = power_spectrum_truncated_into(signal, scratch);
    let powers = &scratch.powers;
    // Skip DC and near-DC bins: slow drift is not periodicity.
    let first_bin = 2usize;
    let total: f64 = powers.iter().skip(first_bin).sum();
    if total <= 1e-9 {
        return 0.0;
    }
    let fundamental = n as f64 / period_samples;
    let mut band = 0.0;
    for harmonic in 1..=4u32 {
        let center = fundamental * harmonic as f64;
        let lo = (center - 2.0).floor().max(first_bin as f64) as usize;
        let hi = ((center + 2.0).ceil() as usize).min(powers.len().saturating_sub(1));
        if lo <= hi {
            band += powers[lo..=hi].iter().sum::<f64>();
        }
    }
    (band / total).clamp(0.0, 1.0)
}

/// Spectral flatness (Wiener entropy) of the non-DC spectrum, in `[0, 1]`.
///
/// 1.0 for white noise (flat spectrum), near 0 for tonal signals.
pub fn spectral_flatness(signal: &[f64]) -> f64 {
    if signal.len() < 8 {
        return 1.0;
    }
    let (powers, _) = power_spectrum_truncated(signal);
    let body = &powers[1..];
    let n = body.len() as f64;
    let eps = 1e-12;
    let log_mean = body.iter().map(|&p| (p + eps).ln()).sum::<f64>() / n;
    let mean = body.iter().sum::<f64>() / n + eps;
    (log_mean.exp() / mean).clamp(0.0, 1.0)
}

/// The dominant non-DC period of a signal, in samples, or `None` for
/// signals too short to analyze.
pub fn dominant_period_samples(signal: &[f64]) -> Option<f64> {
    if signal.len() < 8 {
        return None;
    }
    let (powers, n) = power_spectrum_truncated(signal);
    let (best_bin, _) = powers
        .iter()
        .enumerate()
        .skip(2)
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN power"))?;
    Some(n as f64 / best_bin as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diurnal_signal(days: usize, samples_per_day: usize, noise: f64) -> Vec<f64> {
        let n = days * samples_per_day;
        (0..n)
            .map(|i| {
                let phase = 2.0 * std::f64::consts::PI * i as f64 / samples_per_day as f64;
                let pseudo_noise = ((i as f64 * 12.9898).sin() * 43_758.547).fract();
                0.5 + 0.3 * phase.sin() + noise * (pseudo_noise - 0.5)
            })
            .collect()
    }

    #[test]
    fn pure_diurnal_has_high_strength() {
        let sig = diurnal_signal(30, 720, 0.0);
        let s = periodicity_strength(&sig, 720.0);
        assert!(s > 0.8, "strength {s} too low for pure tone");
    }

    #[test]
    fn noisy_diurnal_still_detected() {
        let sig = diurnal_signal(30, 720, 0.2);
        let s = periodicity_strength(&sig, 720.0);
        assert!(s > 0.3, "strength {s} too low for noisy diurnal");
    }

    #[test]
    fn white_noise_has_low_strength_and_high_flatness() {
        // LCG noise: spectrally white, unlike sin-based pseudo-noise.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let sig: Vec<f64> = (0..21_600)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        let s = periodicity_strength(&sig, 720.0);
        assert!(s < 0.1, "strength {s} too high for noise");
        let f = spectral_flatness(&sig);
        assert!(f > 0.3, "flatness {f} too low for noise");
    }

    #[test]
    fn tonal_signal_has_low_flatness() {
        let sig = diurnal_signal(30, 720, 0.0);
        let f = spectral_flatness(&sig);
        assert!(f < 0.05, "flatness {f} too high for tone");
    }

    #[test]
    fn dominant_period_finds_diurnal() {
        let sig = diurnal_signal(30, 720, 0.05);
        let p = dominant_period_samples(&sig).unwrap();
        assert!(
            (p - 720.0).abs() / 720.0 < 0.15,
            "dominant period {p} not ~720"
        );
    }

    #[test]
    fn constant_signal_has_zero_strength() {
        let sig = vec![0.4; 4_096];
        assert_eq!(periodicity_strength(&sig, 720.0), 0.0);
    }

    #[test]
    fn short_signals_are_safe() {
        assert_eq!(periodicity_strength(&[1.0, 2.0], 2.0), 0.0);
        assert_eq!(dominant_period_samples(&[1.0]), None);
        assert_eq!(spectral_flatness(&[1.0, 2.0, 3.0]), 1.0);
    }

    #[test]
    fn scratch_reuse_is_bitwise_identical_across_mixed_lengths() {
        // One scratch over signals of different truncated lengths must
        // reproduce the allocating path bit for bit (no stale state —
        // in particular no Hann window cached for another length).
        // The sequence shrinks, grows, repeats a truncated length with
        // a different raw length (1000 and 700 both truncate to 512),
        // and interleaves signals too short to analyze.
        let mut scratch = SpectrumScratch::new();
        let lens = [
            4_096usize, 1_000, 5, 21_600, 64, 3, 700, 512, 8, 0, 16_383, 4_096, 7, 9, 1_000,
        ];
        for (k, len) in lens.into_iter().enumerate() {
            let sig: Vec<f64> = (0..len)
                .map(|i| (i as f64 * (0.011 + 0.003 * k as f64)).sin() + 0.5)
                .collect();
            let fresh = periodicity_strength(&sig, 720.0);
            let reused = periodicity_strength_with(&sig, 720.0, &mut scratch);
            assert_eq!(fresh.to_bits(), reused.to_bits(), "len {len}");
            if len >= 8 {
                let period = len as f64 / 6.0;
                let fresh = periodicity_strength(&sig, period);
                let reused = periodicity_strength_with(&sig, period, &mut scratch);
                assert_eq!(
                    fresh.to_bits(),
                    reused.to_bits(),
                    "len {len}, period {period}"
                );
            }
        }
    }
}
