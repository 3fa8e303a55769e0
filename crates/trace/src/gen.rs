//! Utilization-trace generators for the three tenant patterns.
//!
//! §3.2: "user-facing primary tenants often exhibit periodic utilization
//! (e.g., high during the day and low at night), whereas non-user-facing
//! (e.g., Web crawling, batch data analytics) or non-production (e.g.,
//! development, testing) primary tenants often do not. For example, a Web
//! crawling or data scrubber tenant may exhibit (roughly) constant
//! utilization, whereas a testing tenant often exhibits unpredictable
//! utilization behavior."
//!
//! # Two passes per chunk
//!
//! Each generator fills its trace 256 samples at a time in stack
//! buffers, and the chunks are collected straight into the series' shared
//! buffer through an exactly-sized iterator (no heap scratch). A chunk
//! takes two passes:
//!
//! 1. **Draw.** Every random draw of the chunk's samples, in sample order:
//!    spike and jump decisions through `dist::bernoulli`/`dist::uniform`,
//!    and each sample's normal noise as a polar candidate `(u, s)` from
//!    `dist::normal_candidate`, which draws nothing at a zero std. The
//!    constant generator draws nothing but its noise, so it fills all its
//!    candidates with `dist::normal_candidates`: each drawn pair is
//!    written at the next free slot, which advances only on acceptance,
//!    so no branch waits on the rejection test.
//! 2. **Evaluate.** Per sample, the same IEEE operations in the same order
//!    as a per-sample loop: `sin`, the polar arithmetic of
//!    `dist::normal_deviate` (`ln`, `/`, `sqrt`), the adds, the clamp.
//!    With no rejection branch between them, the `ln → / → sqrt` chains
//!    of successive samples overlap.
//!
//! The bits are those of the per-sample loop: the draws are the same
//! calls in the same order, so every sample gets the same numbers and the
//! rng ends where it did, and each sample applies the same operations to
//! the same operands. A sample without a spike adds `-0.0`, and `x + -0.0`
//! is `x` for every `x`. The per-sample form survives as the test-only
//! oracle in `gen/reference.rs`, compared bitwise by a property test;
//! `generated_traces_are_pinned` hashes every sample of DC-0…9.
//!
//! What bounds each pattern now: the `ln` call of every noise variate
//! (constant), `sin` (periodic), and the walk's serial chain of adds
//! (unpredictable). Building unscaled DC-9 also touches ~90 MB of fresh
//! trace memory, ~22k minor page faults, which no change to the
//! arithmetic removes.

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
    pub(crate) fn intended_pattern(&self) -> UtilizationPattern {
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

/// Samples per chunk: the stack-resident unit each generator draws, then
/// evaluates.
const CHUNK: usize = 256;

/// Collects `samples` values into a shared buffer, one chunk at a time:
/// `fill(start, chunk)` writes samples `start .. start + chunk.len()`
/// into a stack buffer that the buffer's exactly-sized iterator then
/// reads out.
fn collect_chunked(samples: usize, mut fill: impl FnMut(usize, &mut [f64])) -> Arc<[f64]> {
    let mut chunk = [0.0; CHUNK];
    (0..samples)
        .map(|i| {
            let j = i % CHUNK;
            if j == 0 {
                fill(i, &mut chunk[..CHUNK.min(samples - i)]);
            }
            chunk[j]
        })
        .collect()
}

/// What a sample adds when no spike or jump lands on it: `x + -0.0` is
/// `x` for every `x`, so adding it is the same as not adding.
const NOTHING: f64 = -0.0;

impl PeriodicGen {
    fn generate_values<R: Rng + ?Sized>(&self, rng: &mut R, samples: usize) -> Arc<[f64]> {
        let mut spike_left = 0usize;
        let mut spike = [NOTHING; CHUNK];
        let mut noise = [(0.0, 0.0); CHUNK];
        collect_chunked(samples, |start, out| {
            let (spike, noise) = (&mut spike[..out.len()], &mut noise[..out.len()]);
            self.draw(rng, &mut spike_left, spike, noise);
            self.evaluate(start, spike, noise, out);
        })
    }

    /// Pass 1: every draw of `spike.len()` samples, in sample order.
    fn draw<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        spike_left: &mut usize,
        spike: &mut [f64],
        noise: &mut [(f64, f64)],
    ) {
        let spike_prob = self.spikes_per_day / SAMPLES_PER_DAY as f64;
        for (spike, noise) in spike.iter_mut().zip(noise) {
            *spike = if *spike_left > 0 {
                *spike_left -= 1;
                self.spike_magnitude
            } else if dist::bernoulli(rng, spike_prob) {
                // Spikes last 2–10 samples (4–20 minutes).
                *spike_left = 2 + (dist::uniform(rng, 0.0, 8.0) as usize);
                self.spike_magnitude
            } else {
                NOTHING
            };
            *noise = dist::normal_candidate(rng, self.noise_std);
        }
    }

    /// Pass 2: samples `start ..` from their draws.
    fn evaluate(&self, start: usize, spike: &[f64], noise: &[(f64, f64)], out: &mut [f64]) {
        for (j, v) in out.iter_mut().enumerate() {
            let i = start + j;
            let day = i / SAMPLES_PER_DAY;
            let weekend = day % 7 >= 5;
            let amp = if weekend {
                self.amplitude * self.weekend_factor
            } else {
                self.amplitude
            };
            let angle =
                2.0 * std::f64::consts::PI * (i as f64 + self.phase) / SAMPLES_PER_DAY as f64;
            let mut x = self.base + amp * angle.sin();
            x += spike[j];
            x += dist::normal_deviate(0.0, self.noise_std, noise[j]);
            *v = x.clamp(0.0, 1.0);
        }
    }
}

impl ConstantGen {
    fn generate_values<R: Rng + ?Sized>(&self, rng: &mut R, samples: usize) -> Arc<[f64]> {
        let mut noise = [(0.0, 0.0); CHUNK];
        collect_chunked(samples, |_, out| {
            let noise = &mut noise[..out.len()];
            dist::normal_candidates(rng, self.noise_std, noise);
            for (v, &c) in out.iter_mut().zip(&*noise) {
                *v = (self.level + dist::normal_deviate(0.0, self.noise_std, c)).clamp(0.0, 1.0);
            }
        })
    }
}

impl UnpredictableGen {
    fn generate_values<R: Rng + ?Sized>(&self, rng: &mut R, samples: usize) -> Arc<[f64]> {
        let mut level = self.mean;
        let mut noise = [(0.0, 0.0); CHUNK];
        let mut jump = [NOTHING; CHUNK];
        collect_chunked(samples, |_, out| {
            let (noise, jump) = (&mut noise[..out.len()], &mut jump[..out.len()]);
            self.draw(rng, noise, jump);
            level = self.evaluate(level, noise, jump, out);
        })
    }

    /// Pass 1: every draw of `noise.len()` samples, in sample order.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R, noise: &mut [(f64, f64)], jump: &mut [f64]) {
        let jump_prob = self.jumps_per_day / SAMPLES_PER_DAY as f64;
        for (noise, jump) in noise.iter_mut().zip(jump) {
            *noise = dist::normal_candidate(rng, self.volatility);
            *jump = if dist::bernoulli(rng, jump_prob) {
                dist::uniform(rng, -self.jump_max, self.jump_max)
            } else {
                NOTHING
            };
        }
    }

    /// Pass 2: the walk from `level` over the draws; returns where it
    /// ends. Each sample's level depends on the last one's, so the walk
    /// is one serial chain of adds; two rarely taken branches keep it
    /// short. A sample without a jump skips the jump's add (adding
    /// [`NOTHING`] would be exact too), and a level inside `[0, 1]`
    /// skips the clamp, which leaves it unchanged.
    fn evaluate(&self, mut level: f64, noise: &[(f64, f64)], jump: &[f64], out: &mut [f64]) -> f64 {
        for ((v, &c), &jump) in out.iter_mut().zip(noise).zip(jump) {
            level += self.reversion * (self.mean - level);
            level += dist::normal_deviate(0.0, self.volatility, c);
            if jump.to_bits() != NOTHING.to_bits() {
                level += jump;
            }
            if !(0.0..=1.0).contains(&level) {
                level = level.clamp(0.0, 1.0);
            }
            *v = level;
        }
        level
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatacenterProfile, SAMPLES_PER_MONTH};
    use harvest_signal::classify::{classify, ClassifierConfig};
    use harvest_sim::rng::{indexed_rng, stream_rng};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

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

    /// FNV-1a over the bits of every sample of every tenant of DC-0…9
    /// (tenant counts scaled down to keep debug builds quick) at two
    /// seeds, and of the testbed's 21 tenants; each tenant's rng is
    /// seeded the way `Datacenter::from_specs` seeds it.
    #[test]
    fn generated_traces_are_pinned() {
        fn fold(h: u64, specs: &[crate::TenantSpec], seed: u64) -> u64 {
            specs.iter().enumerate().fold(h, |h, (i, spec)| {
                let mut rng = indexed_rng(seed, "tenant-trace", i as u64);
                let ts = spec.util.generate(&mut rng, SAMPLES_PER_MONTH);
                ts.values().iter().fold(h, |h, v| {
                    v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
                        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
                    })
                })
            })
        }
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        let dcs = |seed: u64| {
            DatacenterProfile::all().iter().fold(FNV_OFFSET, |h, p| {
                fold(h, &p.clone().scaled(0.2).sample_tenants(seed), seed)
            })
        };
        let got = [
            ("DC-0..9 seed 42", dcs(42)),
            ("DC-0..9 seed 1009", dcs(1009)),
            (
                "testbed_dc9 seed 42",
                fold(FNV_OFFSET, &DatacenterProfile::testbed_dc9(42), 42),
            ),
        ];
        let want = [
            ("DC-0..9 seed 42", 0x12f9_099c_f108_c4ec),
            ("DC-0..9 seed 1009", 0x5acb_7bc2_4cc0_8935),
            ("testbed_dc9 seed 42", 0x691d_0f7a_fae6_6a45),
        ];
        assert_eq!(got, want, "a generated trace moved");
    }

    /// Lengths at and around the chunk boundaries, a day and a month.
    const LENGTHS: [usize; 7] = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 720, SAMPLES_PER_MONTH];

    /// A parameter drawn from `r`: one of the `edges` or, as often as any
    /// one of them, uniform in `range`.
    fn param(r: &mut StdRng, range: std::ops::Range<f64>, edges: &[f64]) -> f64 {
        match r.random_range(0..=edges.len()) {
            k if k < edges.len() => edges[k],
            _ => range.start + r.random::<f64>() * (range.end - range.start),
        }
    }

    /// A generator of every pattern with parameters drawn from `r`,
    /// reaching each edge of the draws: no noise draw at a zero std, no
    /// spike or jump at a zero rate, a certain one at ≥ 720 per day
    /// (the probability clamps to 1), and `uniform(-0.0, 0.0)`, which
    /// draws nothing, at a zero jump size.
    fn random_gens(r: &mut StdRng) -> [UtilGen; 3] {
        [
            UtilGen::Periodic(PeriodicGen {
                base: param(r, -0.2..1.2, &[]),
                amplitude: param(r, 0.0..0.6, &[]),
                phase: param(r, 0.0..720.0, &[]),
                weekend_factor: param(r, 0.0..1.0, &[]),
                noise_std: param(r, 0.0..0.2, &[0.0]),
                spikes_per_day: param(r, 0.0..40.0, &[0.0, 720.0, 5000.0]),
                spike_magnitude: param(r, -0.3..0.5, &[]),
            }),
            UtilGen::Constant(ConstantGen {
                level: param(r, -0.2..1.2, &[]),
                noise_std: param(r, 0.0..0.3, &[0.0]),
            }),
            UtilGen::Unpredictable(UnpredictableGen {
                mean: param(r, -0.2..1.2, &[]),
                reversion: param(r, 0.0..0.2, &[]),
                volatility: param(r, 0.0..0.1, &[0.0]),
                jumps_per_day: param(r, 0.0..60.0, &[0.0, 720.0, 5000.0]),
                jump_max: param(r, 0.0..0.6, &[0.0]),
            }),
        ]
    }

    /// The two-pass generators' samples for `g` (any length, 0 too).
    fn values(g: &UtilGen, rng: &mut StdRng, samples: usize) -> Arc<[f64]> {
        match g {
            UtilGen::Periodic(g) => g.generate_values(rng, samples),
            UtilGen::Constant(g) => g.generate_values(rng, samples),
            UtilGen::Unpredictable(g) => g.generate_values(rng, samples),
        }
    }

    /// The per-sample oracle's samples for `g`.
    fn reference_values(g: &UtilGen, rng: &mut StdRng, samples: usize) -> Vec<f64> {
        match g {
            UtilGen::Periodic(g) => reference::periodic(g, rng, samples),
            UtilGen::Constant(g) => reference::constant(g, rng, samples),
            UtilGen::Unpredictable(g) => reference::unpredictable(g, rng, samples),
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn two_pass_generators_match_per_sample_oracle() {
        let mut cases = StdRng::seed_from_u64(0x6e6e);
        for case in 0..8 * LENGTHS.len() {
            let samples = LENGTHS[case % LENGTHS.len()];
            for g in random_gens(&mut cases) {
                let seed = cases.random::<u64>();
                let (mut ours, mut oracle) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let got = values(&g, &mut ours, samples);
                let want = reference_values(&g, &mut oracle, samples);
                assert!(
                    bits(&got) == bits(&want),
                    "case {case}: {g:?} over {samples} samples"
                );
                assert_eq!(
                    ours.next_u64(),
                    oracle.next_u64(),
                    "case {case}: {g:?} left the rng elsewhere"
                );
            }
        }
    }

    #[test]
    fn negative_std_panics_exactly_when_the_oracle_does() {
        let mut cases = StdRng::seed_from_u64(0xbad);
        for samples in [0, 1, CHUNK + 1] {
            for mut g in random_gens(&mut cases) {
                match &mut g {
                    UtilGen::Periodic(g) => g.noise_std = -0.01,
                    UtilGen::Constant(g) => g.noise_std = -0.01,
                    UtilGen::Unpredictable(g) => g.volatility = -0.01,
                }
                let ours =
                    std::panic::catch_unwind(|| values(&g, &mut StdRng::seed_from_u64(3), samples));
                let oracle = std::panic::catch_unwind(|| {
                    reference_values(&g, &mut StdRng::seed_from_u64(3), samples)
                });
                assert_eq!(ours.is_err(), oracle.is_err(), "{g:?} over {samples}");
                assert_eq!(ours.is_err(), samples > 0, "{g:?} over {samples}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let g = unpredictable();
        let a = month(&g, &mut stream_rng(9, "x"));
        let b = month(&g, &mut stream_rng(9, "x"));
        assert_eq!(a, b);
    }
}
