//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! The paper runs an FFT over each tenant's month of two-minute CPU
//! samples to expose periodicity (§3.2, Figure 1). Month-long traces are
//! not power-of-two length, so [`fft_real_padded`] zero-pads to the next
//! power of two — adequate for peak detection, which is all the
//! classifier needs.

use crate::complex::Complex;

/// Returns the smallest power of two `>= n` (and `>= 1`).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// In-place forward FFT. The input length must be a power of two.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex]) {
    transform(data, false);
}

/// In-place inverse FFT (including the 1/N normalization). The input length
/// must be a power of two.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn ifft_in_place(data: &mut [Complex]) {
    transform(data, true);
    let scale = 1.0 / data.len() as f64;
    for z in data.iter_mut() {
        *z = z.scale(scale);
    }
}

fn transform(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length {n} is not a power of two");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let levels = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - levels)) & (n - 1);
        if j > i {
            data.swap(i, j);
        }
    }

    // Butterfly passes. Each stage's twiddles come from one run of the
    // `w *= wlen` recurrence: the sequence every block would compute
    // for itself, so results match the per-block reference bitwise.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut twiddles: Vec<Complex> = Vec::with_capacity(n / 2);
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_polar_unit(ang);
        twiddles.clear();
        let mut w = Complex::ONE;
        for _ in 0..half {
            twiddles.push(w);
            w *= wlen;
        }
        for block in data.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(half);
            for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(&twiddles) {
                let x = *a;
                let y = *b * w;
                *a = x + y;
                *b = x - y;
            }
        }
        len <<= 1;
    }
}

/// Forward FFT of a real signal, zero-padded to the next power of two.
///
/// Returns the full complex spectrum of the padded signal (length
/// `next_pow2(signal.len())`).
pub fn fft_real_padded(signal: &[f64]) -> Vec<Complex> {
    let mut data = Vec::new();
    fft_real_padded_into(signal, &mut data);
    data
}

/// [`fft_real_padded`] into a caller-owned buffer, so hot loops (e.g.
/// classifying thousands of tenant traces) reuse one allocation instead
/// of building a fresh spectrum vector per call.
///
/// `out` is cleared and overwritten with the full complex spectrum of
/// the padded signal (length `next_pow2(signal.len())`); its capacity is
/// retained across calls.
pub fn fft_real_padded_into(signal: &[f64], out: &mut Vec<Complex>) {
    let n = next_pow2(signal.len());
    out.clear();
    out.reserve(n);
    out.extend(signal.iter().map(|&x| Complex::from_real(x)));
    out.resize(n, Complex::ZERO);
    fft_in_place(out);
}

/// Magnitudes of the non-redundant half of a real signal's spectrum
/// (bins `0 ..= N/2` of the padded FFT).
pub fn magnitude_spectrum(signal: &[f64]) -> Vec<f64> {
    let spec = fft_real_padded(signal);
    let half = spec.len() / 2;
    spec[..=half].iter().map(|z| z.norm()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook transform, restarting the twiddle recurrence in
    /// every block: the bitwise oracle for [`transform`].
    fn reference_transform(data: &mut [Complex], inverse: bool) {
        let n = data.len();
        if n <= 1 {
            return;
        }
        let levels = n.trailing_zeros();
        for i in 0..n {
            let j = (i.reverse_bits() >> (usize::BITS - levels)) & (n - 1);
            if j > i {
                data.swap(i, j);
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::from_polar_unit(ang);
            for start in (0..n).step_by(len) {
                let mut w = Complex::ONE;
                for k in 0..len / 2 {
                    let a = data[start + k];
                    let b = data[start + k + len / 2] * w;
                    data[start + k] = a + b;
                    data[start + k + len / 2] = a - b;
                    w *= wlen;
                }
            }
            len <<= 1;
        }
    }

    fn bits(data: &[Complex]) -> Vec<(u64, u64)> {
        data.iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    #[test]
    fn transforms_match_the_per_block_reference_bitwise() {
        // xorshift64*: lengths 2^0..2^14 and values in [-1, 1).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for _ in 0..40 {
            let n = 1usize << (next() % 15);
            let input: Vec<Complex> = (0..n)
                .map(|_| {
                    let mut unit = || (next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
                    Complex::new(unit(), unit())
                })
                .collect();
            let mut fwd = input.clone();
            let mut fwd_ref = input.clone();
            fft_in_place(&mut fwd);
            reference_transform(&mut fwd_ref, false);
            assert_eq!(bits(&fwd), bits(&fwd_ref), "forward, n = {n}");

            let mut inv = input.clone();
            let mut inv_ref = input;
            ifft_in_place(&mut inv);
            reference_transform(&mut inv_ref, true);
            let scale = 1.0 / n as f64;
            for z in &mut inv_ref {
                *z = z.scale(scale);
            }
            assert_eq!(bits(&inv), bits(&inv_ref), "inverse, n = {n}");
        }
    }

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(21_600), 32_768);
    }

    #[test]
    fn dc_signal_concentrates_in_bin_zero() {
        let signal = vec![5.0; 64];
        let spec = fft_real_padded(&signal);
        assert_close(spec[0].re, 5.0 * 64.0, 1e-9);
        for z in &spec[1..] {
            assert!(z.norm() < 1e-9);
        }
    }

    #[test]
    fn single_tone_peaks_at_its_bin() {
        let n = 256;
        let freq = 8;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq as f64 * i as f64 / n as f64).sin())
            .collect();
        let mags = magnitude_spectrum(&signal);
        let peak = mags[1..]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0
            + 1;
        assert_eq!(peak, freq);
        // The tone bin should hold essentially all the energy: |X[f]| = n/2.
        assert_close(mags[freq], n as f64 / 2.0, 1e-6);
    }

    #[test]
    fn padded_into_reuses_buffer_and_matches_allocating_path() {
        let signal: Vec<f64> = (0..100).map(|i| (i as f64 * 0.13).sin()).collect();
        let fresh = fft_real_padded(&signal);
        let mut buf = Vec::new();
        fft_real_padded_into(&signal, &mut buf);
        assert_eq!(buf.len(), 128);
        assert_eq!(fresh, buf);
        let cap = buf.capacity();
        // A second, shorter signal must not reallocate and must match
        // its own allocating result exactly (no stale-tail leakage).
        let short: Vec<f64> = (0..60).map(|i| (i as f64 * 0.31).cos()).collect();
        fft_real_padded_into(&short, &mut buf);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(fft_real_padded(&short), buf);
    }

    #[test]
    fn round_trip_inverse() {
        let n = 128;
        let signal: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let mut data: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
        fft_in_place(&mut data);
        ifft_in_place(&mut data);
        for (orig, z) in signal.iter().zip(&data) {
            assert_close(z.re, *orig, 1e-9);
            assert!(z.im.abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_energy_is_conserved() {
        let n = 512;
        let signal: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.37).sin() * 2.0 + 1.0)
            .collect();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let spec = fft_real_padded(&signal);
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert_close(time_energy, freq_energy, 1e-6);
    }

    #[test]
    fn linearity() {
        let n = 64;
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).cos()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.5).sin()).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let fa = fft_real_padded(&a);
        let fb = fft_real_padded(&b);
        let fsum = fft_real_padded(&sum);
        for i in 0..n {
            let expect = fa[i] + fb[i];
            assert_close(fsum[i].re, expect.re, 1e-9);
            assert_close(fsum[i].im, expect.im, 1e-9);
        }
    }

    #[test]
    fn tiny_inputs() {
        let mut one = vec![Complex::from_real(3.0)];
        fft_in_place(&mut one);
        assert_eq!(one[0], Complex::from_real(3.0));

        let mut two = vec![Complex::from_real(1.0), Complex::from_real(2.0)];
        fft_in_place(&mut two);
        assert_close(two[0].re, 3.0, 1e-12);
        assert_close(two[1].re, -1.0, 1e-12);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn non_pow2_panics() {
        let mut data = vec![Complex::ZERO; 12];
        fft_in_place(&mut data);
    }
}
