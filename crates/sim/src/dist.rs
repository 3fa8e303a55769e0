//! Random distributions implemented on top of the base [`rand`] crate.
//!
//! Only `rand` itself is available offline, so the distributions the
//! simulations need (exponential inter-arrivals, Poisson event counts,
//! normal noise, log-normal durations, Pareto tails, weighted choice) are
//! implemented here with standard textbook methods. All samplers take
//! `&mut impl Rng` so callers control seeding and stream separation.

use rand::{Rng, RngExt};

/// Samples an exponential variate with the given `rate` (λ, events per unit).
///
/// Uses inverse-transform sampling. The mean of the returned variate is
/// `1.0 / rate`.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive, got {rate}");
    // `random::<f64>()` is in [0, 1); use 1-u in (0, 1] so ln() is finite.
    let u: f64 = rng.random();
    -(1.0 - u).ln() / rate
}

/// Samples a Poisson variate with the given `mean`.
///
/// Uses Knuth's multiplication method for small means and a
/// normal approximation (rounded, clamped at zero) for large means, which
/// is accurate to well under a percent for `mean > 30` and keeps sampling
/// O(1).
///
/// # Panics
///
/// Panics if `mean` is negative or non-finite.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    assert!(
        mean >= 0.0 && mean.is_finite(),
        "poisson mean must be finite and non-negative, got {mean}"
    );
    if mean == 0.0 {
        return 0;
    }
    if mean > 30.0 {
        let n = normal(rng, mean, mean.sqrt());
        return n.round().max(0.0) as u64;
    }
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        let u: f64 = rng.random();
        p *= u;
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Samples a normal variate with the given `mean` and standard deviation
/// `std_dev`, using the Marsaglia polar method.
///
/// The composition of [`normal_candidate`] (the draws) and
/// [`normal_deviate`] (the arithmetic), so a caller that draws its
/// candidates first and evaluates them later gets the same bits. At
/// `std_dev == 0` it draws nothing and returns `mean` itself.
///
/// # Panics
///
/// Panics if `std_dev` is negative.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    let candidate = normal_candidate(rng, std_dev);
    if std_dev == 0.0 {
        return mean;
    }
    normal_deviate(mean, std_dev, candidate)
}

/// The candidate `(u, s)` of a standard deviation of 0, which takes no
/// draw. `u = 0` makes its deviate `mean + ±0.0`, so zero-mean noise
/// evaluated from it is `+0.0`, exactly what [`normal`] returns there.
const ZERO_STD_CANDIDATE: (f64, f64) = (0.0, 1.0);

/// One polar-method draw: `u` and `v` uniform in `[-1, 1)`, returned as
/// `(u, s = u² + v²)` with whether the pair falls inside the unit disc
/// (and off its centre), i.e. is accepted.
#[inline]
fn polar_pair<R: Rng + ?Sized>(rng: &mut R) -> ((f64, f64), bool) {
    let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
    let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
    let s = u * u + v * v;
    ((u, s), (s > 0.0) & (s < 1.0))
}

/// Draws the Marsaglia-polar candidate `(u, s)` of one normal variate of
/// standard deviation `std_dev`: pairs are drawn until one is accepted
/// (`0 < s < 1`). At `std_dev == 0` it draws nothing.
///
/// # Panics
///
/// Panics if `std_dev` is negative.
#[inline]
pub fn normal_candidate<R: Rng + ?Sized>(rng: &mut R, std_dev: f64) -> (f64, f64) {
    assert!(
        std_dev >= 0.0,
        "std_dev must be non-negative, got {std_dev}"
    );
    if std_dev == 0.0 {
        return ZERO_STD_CANDIDATE;
    }
    loop {
        let (candidate, accepted) = polar_pair(rng);
        if accepted {
            return candidate;
        }
    }
}

/// Fills `out` with the candidates of `out.len()` successive
/// [`normal_candidate`] calls, making the same draws. Every drawn pair is
/// written at the next free slot, which advances only when the pair is
/// accepted, so no branch depends on the rejection test.
///
/// # Panics
///
/// Panics if `out` is not empty and `std_dev` is negative.
pub fn normal_candidates<R: Rng + ?Sized>(rng: &mut R, std_dev: f64, out: &mut [(f64, f64)]) {
    if out.is_empty() {
        return;
    }
    assert!(
        std_dev >= 0.0,
        "std_dev must be non-negative, got {std_dev}"
    );
    if std_dev == 0.0 {
        out.fill(ZERO_STD_CANDIDATE);
        return;
    }
    let mut filled = 0;
    while filled < out.len() {
        let (candidate, accepted) = polar_pair(rng);
        out[filled] = candidate;
        filled += accepted as usize;
    }
}

/// The polar method's arithmetic: the normal variate of mean `mean` and
/// standard deviation `std_dev` that the candidate `(u, s)` stands for,
/// `mean + std_dev·u·sqrt(−2·ln s / s)`.
#[inline]
pub fn normal_deviate(mean: f64, std_dev: f64, (u, s): (f64, f64)) -> f64 {
    let factor = (-2.0 * s.ln() / s).sqrt();
    mean + std_dev * u * factor
}

/// Samples a log-normal variate parameterized by the mean and standard
/// deviation of the *underlying normal* (`mu`, `sigma`).
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Samples a log-normal variate parameterized by its own desired `mean` and
/// `std_dev` (more convenient for workload modelling).
///
/// # Panics
///
/// Panics if `mean` is not strictly positive or `std_dev` is negative.
pub fn log_normal_mean_std<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(mean > 0.0, "log-normal mean must be positive, got {mean}");
    assert!(
        std_dev >= 0.0,
        "std_dev must be non-negative, got {std_dev}"
    );
    if std_dev == 0.0 {
        return mean;
    }
    let variance_ratio = (std_dev / mean).powi(2);
    let sigma2 = (1.0 + variance_ratio).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    log_normal(rng, mu, sigma2.sqrt())
}

/// Picks an index in `[0, weights.len())` with probability proportional to
/// the weight at that index.
///
/// Zero weights are legal (never picked unless all weights are zero, in
/// which case the choice is uniform). Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if any weight is negative or non-finite.
pub fn weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    if weights.is_empty() {
        return None;
    }
    let mut total = 0.0f64;
    for (i, &w) in weights.iter().enumerate() {
        assert!(
            w >= 0.0 && w.is_finite(),
            "weight {i} must be finite and non-negative, got {w}"
        );
        total += w;
    }
    if total == 0.0 {
        return Some(rng.random_range(0..weights.len()));
    }
    let mut target = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        target -= w;
        if target <= 0.0 {
            return Some(i);
        }
    }
    // Floating-point round-off can leave a sliver; fall back to the last
    // index with non-zero weight.
    weights.iter().rposition(|&w| w > 0.0)
}

/// Samples `true` with probability `p` (clamped to `[0, 1]`).
pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    let p = p.clamp(0.0, 1.0);
    rng.random::<f64>() < p
}

/// Samples a uniform variate in `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo > hi`.
pub fn uniform<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    assert!(lo <= hi, "uniform bounds inverted: [{lo}, {hi})");
    if lo == hi {
        return lo;
    }
    lo + rng.random::<f64>() * (hi - lo)
}

/// Shuffles a slice in place (Fisher–Yates).
pub fn shuffle<R: Rng + ?Sized, T>(rng: &mut R, items: &mut [T]) {
    let n = items.len();
    if n <= 1 {
        return;
    }
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Samples a Pareto variate with scale `x_min` and shape `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `x_min` or `alpha` is not strictly positive.
    fn pareto<R: Rng + ?Sized>(rng: &mut R, x_min: f64, alpha: f64) -> f64 {
        assert!(x_min > 0.0, "pareto x_min must be positive, got {x_min}");
        assert!(alpha > 0.0, "pareto alpha must be positive, got {alpha}");
        let u: f64 = rng.random();
        x_min / (1.0 - u).powf(1.0 / alpha)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDEC0DE)
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = rng();
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut r, 0.25)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean} far from 4.0");
    }

    #[test]
    fn poisson_small_mean() {
        let mut r = rng();
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| poisson(&mut r, 3.5) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.5).abs() < 0.1, "mean {mean} far from 3.5");
    }

    #[test]
    fn poisson_large_mean_uses_normal_approx() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<u64> = (0..n).map(|_| poisson(&mut r, 400.0)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / n as f64;
        assert!((mean - 400.0).abs() < 2.0, "mean {mean} far from 400");
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((var - 400.0).abs() < 30.0, "variance {var} far from 400");
    }

    #[test]
    fn poisson_zero_mean() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut r, 10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.15);
    }

    #[test]
    fn normal_zero_std_is_constant() {
        let mut r = rng();
        assert_eq!(normal(&mut r, 7.0, 0.0), 7.0);
    }

    #[test]
    fn batched_candidates_match_single_draws() {
        for std_dev in [0.0, 0.01, 3.0] {
            for len in [0, 1, 7, 300] {
                let (mut batched, mut single) = (rng(), rng());
                let mut out = vec![(f64::NAN, f64::NAN); len];
                normal_candidates(&mut batched, std_dev, &mut out);
                for &(u, s) in &out {
                    let (u1, s1) = normal_candidate(&mut single, std_dev);
                    assert_eq!((u.to_bits(), s.to_bits()), (u1.to_bits(), s1.to_bits()));
                }
                assert_eq!(batched, single, "std {std_dev}, {len} candidates");
            }
        }
    }

    #[test]
    #[should_panic(expected = "std_dev must be non-negative")]
    fn negative_std_candidates_panic() {
        normal_candidates(&mut rng(), -1.0, &mut [(0.0, 0.0)]);
    }

    #[test]
    fn log_normal_mean_std_matches_request() {
        let mut r = rng();
        let n = 100_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| log_normal_mean_std(&mut r, 300.0, 150.0))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 300.0).abs() < 5.0, "mean {mean} far from 300");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn pareto_respects_scale() {
        let mut r = rng();
        for _ in 0..1_000 {
            assert!(pareto(&mut r, 2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn weighted_index_distribution() {
        let mut r = rng();
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[weighted_index(&mut r, &weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio} far from 3.0");
    }

    #[test]
    fn weighted_index_edge_cases() {
        let mut r = rng();
        assert_eq!(weighted_index(&mut r, &[]), None);
        // All-zero weights fall back to uniform choice.
        let idx = weighted_index(&mut r, &[0.0, 0.0]).unwrap();
        assert!(idx < 2);
    }

    #[test]
    fn uniform_bounds() {
        let mut r = rng();
        for _ in 0..1_000 {
            let x = uniform(&mut r, -2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
        assert_eq!(uniform(&mut r, 3.0, 3.0), 3.0);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = rng();
        assert!(!bernoulli(&mut r, 0.0));
        assert!(bernoulli(&mut r, 1.0));
        // Out-of-range probabilities are clamped, not panics.
        assert!(bernoulli(&mut r, 2.0));
        assert!(!bernoulli(&mut r, -1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = rng();
        let mut v: Vec<u32> = (0..100).collect();
        shuffle(&mut r, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left input sorted");
    }
}
