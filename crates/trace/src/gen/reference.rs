//! The per-sample generators: the bitwise oracle for the two-pass
//! generators in `harvest_trace::gen`.
//!
//! Test-only. Each sample makes its draws and evaluates itself before the
//! next sample draws, and every normal variate comes from one call to the
//! polar rejection loop below, which shares no code with
//! `dist::normal_candidate`/`dist::normal_deviate`. Only the draws'
//! `dist::bernoulli`/`dist::uniform` calls and the per-sample arithmetic
//! are the same, which is what makes a bitwise comparison meaningful.

use harvest_sim::dist;
use rand::{Rng, RngExt};

use super::{ConstantGen, PeriodicGen, UnpredictableGen};
use crate::SAMPLES_PER_DAY;

/// A normal variate by the Marsaglia polar method, drawn and evaluated in
/// one loop.
fn polar_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(
        std_dev >= 0.0,
        "std_dev must be non-negative, got {std_dev}"
    );
    if std_dev == 0.0 {
        return mean;
    }
    loop {
        let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            let factor = (-2.0 * s.ln() / s).sqrt();
            return mean + std_dev * u * factor;
        }
    }
}

pub(super) fn periodic<R: Rng + ?Sized>(g: &PeriodicGen, rng: &mut R, samples: usize) -> Vec<f64> {
    let spike_prob = g.spikes_per_day / SAMPLES_PER_DAY as f64;
    let mut spike_left = 0usize;
    (0..samples)
        .map(|i| {
            let day = i / SAMPLES_PER_DAY;
            let weekend = day % 7 >= 5;
            let amp = if weekend {
                g.amplitude * g.weekend_factor
            } else {
                g.amplitude
            };
            let angle = 2.0 * std::f64::consts::PI * (i as f64 + g.phase) / SAMPLES_PER_DAY as f64;
            let mut v = g.base + amp * angle.sin();
            if spike_left > 0 {
                spike_left -= 1;
                v += g.spike_magnitude;
            } else if dist::bernoulli(rng, spike_prob) {
                spike_left = 2 + (dist::uniform(rng, 0.0, 8.0) as usize);
                v += g.spike_magnitude;
            }
            v += polar_normal(rng, 0.0, g.noise_std);
            v.clamp(0.0, 1.0)
        })
        .collect()
}

pub(super) fn constant<R: Rng + ?Sized>(g: &ConstantGen, rng: &mut R, samples: usize) -> Vec<f64> {
    (0..samples)
        .map(|_| (g.level + polar_normal(rng, 0.0, g.noise_std)).clamp(0.0, 1.0))
        .collect()
}

pub(super) fn unpredictable<R: Rng + ?Sized>(
    g: &UnpredictableGen,
    rng: &mut R,
    samples: usize,
) -> Vec<f64> {
    let jump_prob = g.jumps_per_day / SAMPLES_PER_DAY as f64;
    let mut level = g.mean;
    (0..samples)
        .map(|_| {
            level += g.reversion * (g.mean - level);
            level += polar_normal(rng, 0.0, g.volatility);
            if dist::bernoulli(rng, jump_prob) {
                level += dist::uniform(rng, -g.jump_max, g.jump_max);
            }
            level = level.clamp(0.0, 1.0);
            level
        })
        .collect()
}
