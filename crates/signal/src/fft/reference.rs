//! The textbook radix-2 transform: the bitwise oracle for the planned
//! kernel in `harvest_signal::fft`.
//!
//! Test-only. It shares no code with the kernel: interleaved `(re, im)`
//! pairs instead of split buffers, a swap loop for the bit reversal, one
//! stage per pass, and the `w *= wlen` twiddle recurrence restarted at 1
//! in every block. Only the arithmetic of a butterfly is the same, which
//! is what makes a bitwise comparison meaningful.

/// `a · b` in the kernel's operand order.
fn mul((ar, ai): (f64, f64), (br, bi): (f64, f64)) -> (f64, f64) {
    (ar * br - ai * bi, ar * bi + ai * br)
}

/// Unnormalised in-place DFT of `data` (forward with `e^{-iθ}` twiddles,
/// inverse with `e^{+iθ}`). The length must be a power of two.
pub(crate) fn per_block_transform(data: &mut [(f64, f64)], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length {n} is not a power of two");
    if n == 1 {
        return;
    }
    let levels = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - levels);
        if j > i {
            data.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = (ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let mut w = (1.0, 0.0);
            for k in 0..len / 2 {
                let (ar, ai) = data[start + k];
                let (yr, yi) = mul(data[start + k + len / 2], w);
                data[start + k] = (ar + yr, ai + yi);
                data[start + k + len / 2] = (ar - yr, ai - yi);
                w = mul(w, wlen);
            }
        }
        len <<= 1;
    }
}
