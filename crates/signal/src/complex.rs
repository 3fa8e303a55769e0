//! A minimal complex-number type for the FFT.

use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// The multiplicative identity.
    pub(crate) const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    pub(crate) const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Returns `e^(iθ)` — the unit complex number at angle `theta` radians.
    pub(crate) fn from_polar_unit(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// The squared magnitude `re² + im²`.
    pub(crate) fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Scales by a real factor.
    pub(crate) fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl Add for Complex {
    type Output = Complex;

    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl Sub for Complex {
    type Output = Complex;

    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl Mul for Complex {
    type Output = Complex;

    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Neg for Complex {
    type Output = Complex;

    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Complex {
        /// The magnitude `|z|`.
        pub(crate) fn norm(self) -> f64 {
            self.norm_sqr().sqrt()
        }

        /// The complex conjugate.
        fn conj(self) -> Self {
            Complex {
                re: self.re,
                im: -self.im,
            }
        }
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z + Complex::ZERO, z);
        assert_eq!(z * Complex::ONE, z);
        assert_eq!(z - z, Complex::ZERO);
        assert_eq!(-z, Complex::new(-3.0, 4.0));
    }

    #[test]
    fn multiplication() {
        // (1 + 2i)(3 + 4i) = 3 + 4i + 6i + 8i² = -5 + 10i
        let p = Complex::new(1.0, 2.0) * Complex::new(3.0, 4.0);
        assert_eq!(p, Complex::new(-5.0, 10.0));
    }

    #[test]
    fn norms() {
        let z = Complex::new(3.0, 4.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.norm(), 5.0);
        assert_eq!(z.conj(), Complex::new(3.0, -4.0));
        // z * conj(z) is |z|² on the real axis.
        let zz = z * z.conj();
        assert!((zz.re - 25.0).abs() < 1e-12 && zz.im.abs() < 1e-12);
    }

    #[test]
    fn polar_unit_circle() {
        let i = Complex::from_polar_unit(std::f64::consts::FRAC_PI_2);
        assert!((i.re).abs() < 1e-12);
        assert!((i.im - 1.0).abs() < 1e-12);
        // e^{iπ} = -1.
        let m1 = Complex::from_polar_unit(std::f64::consts::PI);
        assert!((m1.re + 1.0).abs() < 1e-12);
    }
}
