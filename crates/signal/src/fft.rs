//! Iterative radix-2 Cooley–Tukey FFT on one planned, split-complex
//! kernel.
//!
//! The paper runs an FFT over each tenant's month of two-minute CPU
//! samples to expose periodicity (§3.2, Figure 1). Month-long traces are
//! not power-of-two length, so [`fft_real_padded`] zero-pads to the next
//! power of two — adequate for peak detection, which is all the
//! classifier needs.
//!
//! # The kernel
//!
//! Every entry point here, and the spectra of [`crate::spectrum`], runs
//! one `Fft`:
//!
//! * **A per-length plan.** Every stage's twiddles are computed once per
//!   length and direction and kept until either changes, so a sweep over
//!   hundreds of equal-length traces builds them once. A stage's
//!   twiddles come from one run of the `w *= wlen` recurrence, the
//!   sequence every block of the textbook transform computes for itself.
//! * **Split layout.** Real and imaginary parts live in two `f64`
//!   buffers, so a butterfly loop reads and writes contiguous slices of
//!   plain floats that the compiler vectorises.
//! * **The load is the permutation.** Samples are read in bit-reversed
//!   order straight into the buffers, and stages 1 and 2 run on each
//!   group of four as it is loaded. The four inputs of a group sit a
//!   quarter of the length apart, so one bit reversal per group finds
//!   them; that costs no more than a lookup table, which the plan
//!   therefore does not keep.
//! * **Paired stages.** The remaining stages run two per memory pass:
//!   for each group of four elements, the two radix-2 butterflies of the
//!   first stage, then the two of the second. This is not a radix-4
//!   butterfly, whose exact `±i` shortcuts would round differently.
//!
//! # Bitwise results
//!
//! Every butterfly multiplies the same operand by the same twiddle with
//! [`Complex`]'s multiplication (`y = b·w`, then `a + y` and `a − y`),
//! with nothing fused or reassociated, and the butterflies a pass
//! reorders touch disjoint elements. So every output is bitwise the
//! textbook per-block transform's — signed zeros and subnormals included
//! — and every spectrum, pattern and feature built on it stays
//! unchanged. The tests check this against that transform, kept
//! test-only in `fft/reference.rs`.

use crate::complex::Complex;

/// Returns the smallest power of two `>= n` (and `>= 1`).
pub(crate) fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// A planned split-complex transform: the twiddles of the last length
/// and direction it ran, and its two work buffers.
///
/// [`Fft::run`] rebuilds the twiddles only when the length or direction
/// changes and overwrites the buffers completely, so reuse never
/// changes a result.
#[derive(Debug, Default)]
pub(crate) struct Fft {
    /// The planned length (0 before the first run).
    n: usize,
    /// Whether the plan is for the inverse direction.
    inverse: bool,
    /// Stage twiddles: the stage of half-length `h` keeps its `h`
    /// twiddles at `h - 1 .. 2h - 1`.
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Fft {
    /// Unnormalised DFT of the `n`-point sequence `input(0), …,
    /// input(n − 1)` (forward with `e^{-iθ}` twiddles, inverse with
    /// `e^{+iθ}`), returned as its real and imaginary parts.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub(crate) fn run(
        &mut self,
        n: usize,
        inverse: bool,
        input: impl Fn(usize) -> Complex,
    ) -> (&[f64], &[f64]) {
        assert!(n.is_power_of_two(), "FFT length {n} is not a power of two");
        if (n, inverse) != (self.n, self.inverse) {
            self.plan(n, inverse);
        }
        self.load(&input);
        let (re, im) = (&mut self.re[..], &mut self.im[..]);
        let stage = |half: usize| {
            let at = half - 1..2 * half - 1;
            (&self.tw_re[at.clone()], &self.tw_im[at])
        };
        // Stages of half-length 1 and 2 ran in the load.
        let mut half = 4;
        while 4 * half <= n {
            paired_pass(re, im, half, stage(half), stage(2 * half));
            half *= 4;
        }
        if 2 * half <= n {
            single_pass(re, im, half, stage(half));
        }
        (&self.re, &self.im)
    }

    fn plan(&mut self, n: usize, inverse: bool) {
        let sign = if inverse { 1.0 } else { -1.0 };
        self.tw_re.clear();
        self.tw_im.clear();
        let mut half = 1;
        while half < n {
            let len = 2 * half;
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::from_polar_unit(ang);
            let mut w = Complex::ONE;
            for _ in 0..half {
                self.tw_re.push(w.re);
                self.tw_im.push(w.im);
                w *= wlen;
            }
            half = len;
        }
        self.re.clear();
        self.re.resize(n, 0.0);
        self.im.clear();
        self.im.resize(n, 0.0);
        self.n = n;
        self.inverse = inverse;
    }

    /// Reads the input in bit-reversed order into the buffers, running
    /// the stages of half-length 1 and 2 on each group of four.
    ///
    /// Output `4q + k` takes the input whose index is `4q + k` with its
    /// `log2(n)` bits reversed: `q` reversed in its `log2(n) − 2` bits,
    /// plus `k` reversed into the top two, i.e. plus `0`, `n/2`, `n/4`
    /// or `3n/4`.
    fn load(&mut self, input: &impl Fn(usize) -> Complex) {
        let n = self.n;
        let w = |k: usize| Complex::new(self.tw_re[k], self.tw_im[k]);
        if n < 4 {
            // The permutation is the identity; stage 1 runs for n = 2.
            let (y0, y1) = match n {
                1 => (input(0), Complex::ZERO),
                _ => butterfly(input(0), input(1), w(0)),
            };
            for (k, y) in [y0, y1].into_iter().take(n).enumerate() {
                (self.re[k], self.im[k]) = split(y);
            }
            return;
        }
        let (w1, w2) = (w(0), [w(1), w(2)]);
        let shift = usize::BITS + 2 - n.trailing_zeros();
        let quarter = n / 4;
        let groups = self.re.chunks_exact_mut(4).zip(self.im.chunks_exact_mut(4));
        for (q, (re, im)) in groups.enumerate() {
            let base = q.reverse_bits().checked_shr(shift).unwrap_or(0);
            let x = [0, 2, 1, 3].map(|k| input(base + k * quarter));
            let (x0, x1) = butterfly(x[0], x[1], w1);
            let (x2, x3) = butterfly(x[2], x[3], w1);
            let (x0, x2) = butterfly(x0, x2, w2[0]);
            let (x1, x3) = butterfly(x1, x3, w2[1]);
            for (k, z) in [x0, x1, x2, x3].into_iter().enumerate() {
                (re[k], im[k]) = split(z);
            }
        }
    }
}

fn split(z: Complex) -> (f64, f64) {
    (z.re, z.im)
}

/// One radix-2 butterfly: `(a + b·w, a − b·w)`.
#[inline(always)]
fn butterfly(a: Complex, b: Complex, w: Complex) -> (Complex, Complex) {
    let y = b * w;
    (a + y, a - y)
}

/// Elements a pass handles per step: a stage's half-length is a
/// multiple of this from the first pass after the load on.
const LANES: usize = 2;

/// Real or imaginary parts of [`LANES`] consecutive elements, held in
/// registers so the butterflies over them vectorise without aliasing
/// checks.
type Lanes = [f64; LANES];

fn lanes(s: &[f64], j: usize) -> Lanes {
    s[j..j + LANES].try_into().expect("LANES elements")
}

/// [`butterfly`] on each of [`LANES`] `(a, b, w)` triples, in place.
#[inline(always)]
fn butterflies(a: &mut (Lanes, Lanes), b: &mut (Lanes, Lanes), w: &(Lanes, Lanes)) {
    for k in 0..LANES {
        let (x, y) = butterfly(
            Complex::new(a.0[k], a.1[k]),
            Complex::new(b.0[k], b.1[k]),
            Complex::new(w.0[k], w.1[k]),
        );
        (a.0[k], a.1[k]) = split(x);
        (b.0[k], b.1[k]) = split(y);
    }
}

/// Splits a block into `P` consecutive slices of `len` elements.
fn parts<const P: usize>(block: &mut [f64], len: usize) -> [&mut [f64]; P] {
    let mut rest = block;
    std::array::from_fn(|_| {
        let (part, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        part
    })
}

/// The stage of half-length `half` (a multiple of [`LANES`]) in one
/// pass over the buffers.
fn single_pass(re: &mut [f64], im: &mut [f64], half: usize, w: (&[f64], &[f64])) {
    let blocks = re
        .chunks_exact_mut(2 * half)
        .zip(im.chunks_exact_mut(2 * half));
    for (re, im) in blocks {
        let [r0, r1] = parts(re, half);
        let [i0, i1] = parts(im, half);
        for j in (0..half).step_by(LANES) {
            let mut a = (lanes(r0, j), lanes(i0, j));
            let mut b = (lanes(r1, j), lanes(i1, j));
            butterflies(&mut a, &mut b, &(lanes(w.0, j), lanes(w.1, j)));
            r0[j..j + LANES].copy_from_slice(&a.0);
            i0[j..j + LANES].copy_from_slice(&a.1);
            r1[j..j + LANES].copy_from_slice(&b.0);
            i1[j..j + LANES].copy_from_slice(&b.1);
        }
    }
}

/// The stages of half-length `half` (a multiple of [`LANES`]) and
/// `2·half` in one pass over the buffers: in each block of `4·half`,
/// element `j` of every quarter goes through its first-stage butterfly
/// (twiddle `wa[j]`) and then its second-stage one (`wb[j]` for
/// quarters 0 and 2, `wb[half + j]` for 1 and 3).
fn paired_pass(
    re: &mut [f64],
    im: &mut [f64],
    half: usize,
    wa: (&[f64], &[f64]),
    wb: (&[f64], &[f64]),
) {
    let blocks = re
        .chunks_exact_mut(4 * half)
        .zip(im.chunks_exact_mut(4 * half));
    for (re, im) in blocks {
        let [r0, r1, r2, r3] = parts(re, half);
        let [i0, i1, i2, i3] = parts(im, half);
        for j in (0..half).step_by(LANES) {
            let mut x0 = (lanes(r0, j), lanes(i0, j));
            let mut x1 = (lanes(r1, j), lanes(i1, j));
            let mut x2 = (lanes(r2, j), lanes(i2, j));
            let mut x3 = (lanes(r3, j), lanes(i3, j));
            let wa = (lanes(wa.0, j), lanes(wa.1, j));
            butterflies(&mut x0, &mut x1, &wa);
            butterflies(&mut x2, &mut x3, &wa);
            butterflies(&mut x0, &mut x2, &(lanes(wb.0, j), lanes(wb.1, j)));
            butterflies(
                &mut x1,
                &mut x3,
                &(lanes(wb.0, half + j), lanes(wb.1, half + j)),
            );
            for ((r, i), x) in [(&mut *r0, &mut *i0), (r1, i1), (r2, i2), (r3, i3)]
                .into_iter()
                .zip([x0, x1, x2, x3])
            {
                r[j..j + LANES].copy_from_slice(&x.0);
                i[j..j + LANES].copy_from_slice(&x.1);
            }
        }
    }
}

/// In-place forward FFT. The input length must be a power of two.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex]) {
    transform_in_place(data, false);
}

/// In-place inverse FFT (including the 1/N normalization). The input length
/// must be a power of two.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn ifft_in_place(data: &mut [Complex]) {
    transform_in_place(data, true);
    let scale = 1.0 / data.len() as f64;
    for z in data.iter_mut() {
        *z = z.scale(scale);
    }
}

fn transform_in_place(data: &mut [Complex], inverse: bool) {
    let mut fft = Fft::default();
    let (re, im) = fft.run(data.len(), inverse, |j| data[j]);
    for (z, (&r, &i)) in data.iter_mut().zip(re.iter().zip(im)) {
        *z = Complex::new(r, i);
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
/// retained across calls. The plan and the split buffers are built per
/// call; the spectra of [`crate::spectrum`] keep theirs in a
/// [`SpectrumScratch`](crate::SpectrumScratch).
pub(crate) fn fft_real_padded_into(signal: &[f64], out: &mut Vec<Complex>) {
    let mut fft = Fft::default();
    let (re, im) = fft.run(next_pow2(signal.len()), false, |j| {
        signal
            .get(j)
            .map_or(Complex::ZERO, |&x| Complex::from_real(x))
    });
    out.clear();
    out.extend(re.iter().zip(im).map(|(&r, &i)| Complex::new(r, i)));
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    /// Magnitudes of the non-redundant half of a real signal's spectrum
    /// (bins `0 ..= N/2` of the padded FFT).
    fn magnitude_spectrum(signal: &[f64]) -> Vec<f64> {
        let spec = fft_real_padded(signal);
        let half = spec.len() / 2;
        spec[..=half].iter().map(|z| z.norm()).collect()
    }

    fn bits(data: &[Complex]) -> Vec<(u64, u64)> {
        data.iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    /// The kinds of input the bitwise oracle test feeds the kernel.
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        /// Both parts uniform in [-1, 1).
        Uniform,
        /// Uniform real parts and `+0.0` imaginary parts, as the
        /// spectrum path loads them.
        Real,
        /// Mostly `±0.0`, one part in eight `±1.0`.
        SignedZeros,
        /// Subnormals and `±0.0` (all-zero exponent bits).
        Subnormal,
        /// Magnitudes from 1e-300 to 2e300, either sign.
        Wide,
        /// Each part of any of the kinds above but `Real`.
        Mixed,
    }

    /// One part of an input of `kind` (not `Real`) from the random bits
    /// `r`.
    fn part(kind: Kind, r: u64) -> f64 {
        let sign = if r >> 63 == 0 { 1.0 } else { -1.0 };
        let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
        match kind {
            Kind::Uniform | Kind::Real => 2.0 * unit - 1.0,
            Kind::SignedZeros if r.is_multiple_of(8) => sign,
            Kind::SignedZeros => sign * 0.0,
            Kind::Subnormal => f64::from_bits(r & 0x800f_ffff_ffff_ffff),
            Kind::Wide => sign * (1.0 + unit) * 10f64.powi((r % 601) as i32 - 300),
            Kind::Mixed => {
                let kinds = [
                    Kind::Uniform,
                    Kind::SignedZeros,
                    Kind::Subnormal,
                    Kind::Wide,
                ];
                part(kinds[(r % 4) as usize], r.rotate_left(17))
            }
        }
    }

    /// The per-block reference transform of `input`, normalised by
    /// `1/n` when inverse, as [`ifft_in_place`] is.
    fn reference_transform(input: &[Complex], inverse: bool) -> Vec<Complex> {
        let mut data: Vec<(f64, f64)> = input.iter().map(|z| (z.re, z.im)).collect();
        reference::per_block_transform(&mut data, inverse);
        let scale = 1.0 / input.len() as f64;
        data.into_iter()
            .map(|(re, im)| {
                let z = Complex::new(re, im);
                if inverse {
                    z.scale(scale)
                } else {
                    z
                }
            })
            .collect()
    }

    #[test]
    fn transforms_match_the_per_block_reference_bitwise() {
        // xorshift64*.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let kinds = [
            Kind::Uniform,
            Kind::Real,
            Kind::SignedZeros,
            Kind::Subnormal,
            Kind::Wide,
            Kind::Mixed,
        ];
        for levels in 0..=15 {
            let n = 1usize << levels;
            for kind in kinds {
                let input: Vec<Complex> = (0..n)
                    .map(|_| match kind {
                        Kind::Real => Complex::from_real(part(kind, next())),
                        _ => Complex::new(part(kind, next()), part(kind, next())),
                    })
                    .collect();
                let mut fwd = input.clone();
                fft_in_place(&mut fwd);
                let want = reference_transform(&input, false);
                assert_eq!(bits(&fwd), bits(&want), "forward, n = {n}, {kind:?}");

                let mut inv = input.clone();
                ifft_in_place(&mut inv);
                let want = reference_transform(&input, true);
                assert_eq!(bits(&inv), bits(&want), "inverse, n = {n}, {kind:?}");

                if let Kind::Real = kind {
                    // The zero-padding real path, from a shorter signal.
                    let signal: Vec<f64> = input[..n - n / 3].iter().map(|z| z.re).collect();
                    let mut padded = input.clone();
                    padded[n - n / 3..].fill(Complex::ZERO);
                    let want = reference_transform(&padded, false);
                    assert_eq!(
                        bits(&fft_real_padded(&signal)),
                        bits(&want),
                        "real padded, n = {n}"
                    );
                }
            }
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
