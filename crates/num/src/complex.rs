//! A minimal, fast double-precision complex scalar.
//!
//! The BOSON-1 stack needs complex arithmetic in exactly one flavour
//! (`f64` real/imaginary parts), so instead of pulling an external crate we
//! provide [`Complex64`] here with the full set of operations the solvers
//! use: field arithmetic, conjugation, magnitude, exponential and square
//! root.
//!
//! # Examples
//!
//! ```
//! use boson_num::Complex64;
//!
//! let a = Complex64::new(1.0, 2.0);
//! let b = Complex64::new(3.0, -1.0);
//! let c = a * b + Complex64::I;
//! assert_eq!(c, Complex64::new(5.0, 6.0));
//! assert!((a * a.conj()).re - a.norm_sqr() < 1e-15);
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// Implements all field operations, mixed operations with `f64`, and the
/// transcendental functions needed by the FDFD and lithography kernels.
///
/// `repr(C)`: a slice of `Complex64` is interleaved `re, im` `f64` pairs,
/// which the AVX slice kernels load directly.
#[derive(Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Convenience constructor mirroring the `num_complex` idiom.
///
/// ```
/// use boson_num::{c64, Complex64};
/// assert_eq!(c64(1.0, -2.0), Complex64::new(1.0, -2.0));
/// ```
#[inline(always)]
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64 { re, im }
}

impl Complex64 {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex64 = c64(0.0, 0.0);
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex64 = c64(1.0, 0.0);
    /// The imaginary unit, `0 + 1i`.
    pub const I: Complex64 = c64(0.0, 1.0);

    /// Creates a complex number from real and imaginary parts.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        c64(re, im)
    }

    /// Creates a purely real complex number.
    #[inline(always)]
    pub const fn from_real(re: f64) -> Self {
        c64(re, 0.0)
    }

    /// Complex conjugate `re - i·im`.
    #[inline(always)]
    pub fn conj(self) -> Self {
        c64(self.re, -self.im)
    }

    /// Squared magnitude `re² + im²`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`, computed with `hypot` for robustness against
    /// overflow/underflow in the squares.
    #[inline(always)]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns non-finite components when `self` is zero, matching IEEE
    /// division semantics.
    #[inline(always)]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        c64(self.re / d, -self.im / d)
    }

    /// Complex exponential `e^z = e^re (cos im + i sin im)`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        c64(r * self.im.cos(), r * self.im.sin())
    }

    /// `e^{iθ}` for real θ — the unit phasor used throughout the FFT and
    /// source phasing code.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        c64(theta.cos(), theta.sin())
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        let m = self.abs();
        let re = ((m + self.re) * 0.5).max(0.0).sqrt();
        let im = ((m - self.re) * 0.5).max(0.0).sqrt();
        c64(re, if self.im >= 0.0 { im } else { -im })
    }

    /// Raises to a small integer power by repeated squaring.
    pub fn powi(self, mut n: i32) -> Self {
        if n == 0 {
            return Self::ONE;
        }
        let mut base = if n < 0 { self.inv() } else { self };
        if n < 0 {
            n = -n;
        }
        let mut acc = Self::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc *= base;
            }
            base = base * base;
            n >>= 1;
        }
        acc
    }

    /// Scales by a real factor.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        c64(self.re * s, self.im * s)
    }

    /// `true` when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}i",
            self.re,
            if self.im < 0.0 { "-" } else { "+" },
            self.im.abs()
        )
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<f64> for Complex64 {
    #[inline(always)]
    fn from(re: f64) -> Self {
        c64(re, 0.0)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        c64(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        c64(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        c64(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        c64(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn neg(self) -> Self {
        c64(-self.re, -self.im)
    }
}

impl Add<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: f64) -> Self {
        c64(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: f64) -> Self {
        c64(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Self {
        c64(self.re * rhs, self.im * rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn div(self, rhs: f64) -> Self {
        c64(self.re / rhs, self.im / rhs)
    }
}

impl Add<Complex64> for f64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: Complex64) -> Complex64 {
        rhs + self
    }
}

impl Sub<Complex64> for f64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: Complex64) -> Complex64 {
        c64(self - rhs.re, -rhs.im)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs * self
    }
}

impl Div<Complex64> for f64 {
    type Output = Complex64;
    #[inline(always)]
    fn div(self, rhs: Complex64) -> Complex64 {
        Complex64::from_real(self) / rhs
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline(always)]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: f64) {
        self.re *= rhs;
        self.im *= rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + *b)
    }
}

// ---------------------------------------------------------------------------
// Slice kernels
//
// The innermost loops of the banded LU (rank-1 trailing updates and
// triangular substitutions) spend all their time in three BLAS-1 shapes.
// Writing them once here over exact-length slices keeps every caller free
// of bounds checks in the hot loop. The hottest shape, `axpy_neg`, is
// dispatched at runtime to an explicit AVX kernel (`crate::simd`): LLVM
// does not vectorise the interleaved re/im arithmetic for the default
// baseline-x86-64 build, and even a `-C target-cpu=native` build of the
// portable loop factors at about half the kernel's speed.
// ---------------------------------------------------------------------------

/// `y[i] -= a·x[i]` over exact-length slices.
///
/// Runs an AVX kernel when the CPU has AVX (detected once per process)
/// and the portable loop otherwise; both give bit-identical results.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn axpy_neg(a: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), y.len(), "axpy_neg length mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx() {
        // SAFETY: AVX support was detected at runtime just above.
        unsafe { crate::simd::axpy_neg_avx(a, x, y) };
        return;
    }
    axpy_neg_scalar(a, x, y);
}

/// The portable loop behind [`axpy_neg`]: its fallback on hosts without
/// AVX, and the reference the AVX kernel is tested against bit for bit.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub(crate) fn axpy_neg_scalar(a: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), y.len(), "axpy_neg length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        yi.re -= xi.re * a.re - xi.im * a.im;
        yi.im -= xi.re * a.im + xi.im * a.re;
    }
}

/// The unconjugated dot product `Σ x[i]·y[i]` over exact-length slices.
///
/// Runs an AVX kernel when the CPU has AVX and the portable loop
/// otherwise; both sum in one fixed order (see [`dotu_scalar`]), so they
/// give bit-identical results.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub(crate) fn dotu(x: &[Complex64], y: &[Complex64]) -> Complex64 {
    assert_eq!(x.len(), y.len(), "dotu length mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx() {
        // SAFETY: AVX support was detected at runtime just above.
        return unsafe { crate::simd::dotu_avx(x, y) };
    }
    dotu_scalar(x, y)
}

/// The portable loop behind [`dotu`], in the AVX kernel's order: the
/// products of even and of odd positions accumulate separately, the two
/// sums are added, and an odd last product comes after.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub(crate) fn dotu_scalar(x: &[Complex64], y: &[Complex64]) -> Complex64 {
    assert_eq!(x.len(), y.len(), "dotu length mismatch");
    let mut acc = [Complex64::ZERO; 2];
    let (mut xs, mut ys) = (x.chunks_exact(2), y.chunks_exact(2));
    for (xc, yc) in (&mut xs).zip(&mut ys) {
        acc[0] += xc[0] * yc[0];
        acc[1] += xc[1] * yc[1];
    }
    let mut sum = acc[0] + acc[1];
    if let ([a], [b]) = (xs.remainder(), ys.remainder()) {
        sum += *a * *b;
    }
    sum
}

/// `y[i] += a·x[i]` over exact-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn axpy(a: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        yi.re += xi.re * a.re - xi.im * a.im;
        yi.im += xi.re * a.im + xi.im * a.re;
    }
}

/// Element-wise fused multiply-add `y[i] += a[i]·x[i]` — the stencil
/// (diagonal-band) application kernel.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn vmul_add(a: &[Complex64], x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(a.len(), x.len(), "vmul_add length mismatch");
    assert_eq!(a.len(), y.len(), "vmul_add length mismatch");
    for ((yi, &ai), &xi) in y.iter_mut().zip(a).zip(x) {
        yi.re += ai.re * xi.re - ai.im * xi.im;
        yi.im += ai.re * xi.im + ai.im * xi.re;
    }
}

/// Element-wise multiply `y[i] = a[i]·x[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn vmul(a: &[Complex64], x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(a.len(), x.len(), "vmul length mismatch");
    assert_eq!(a.len(), y.len(), "vmul length mismatch");
    for ((yi, &ai), &xi) in y.iter_mut().zip(a).zip(x) {
        yi.re = ai.re * xi.re - ai.im * xi.im;
        yi.im = ai.re * xi.im + ai.im * xi.re;
    }
}

/// `x[i] *= a` in place.
#[inline]
pub fn scal(a: Complex64, x: &mut [Complex64]) {
    for xi in x.iter_mut() {
        let re = xi.re * a.re - xi.im * a.im;
        xi.im = xi.re * a.im + xi.im * a.re;
        xi.re = re;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn field_axioms_spot_checks() {
        let a = c64(1.5, -2.25);
        let b = c64(-0.5, 4.0);
        let c = c64(3.0, 0.125);
        assert!(close(a + b, b + a, 0.0));
        assert!(close(a * b, b * a, 0.0));
        assert!(close(a * (b + c), a * b + a * c, 1e-12));
        assert!(close(a + Complex64::ZERO, a, 0.0));
        assert!(close(a * Complex64::ONE, a, 0.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = c64(2.0, -3.0);
        let b = c64(0.5, 1.5);
        assert!(close((a * b) / b, a, 1e-12));
        assert!(close(a * a.inv(), Complex64::ONE, 1e-12));
    }

    #[test]
    fn conjugation_and_norm() {
        let a = c64(3.0, 4.0);
        assert_eq!(a.abs(), 5.0);
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.conj(), c64(3.0, -4.0));
        assert!(close(a * a.conj(), c64(25.0, 0.0), 0.0));
    }

    #[test]
    fn exp_matches_euler() {
        let z = Complex64::I * std::f64::consts::PI;
        assert!(close(z.exp(), c64(-1.0, 0.0), 1e-12));
        let w = c64(1.0, 0.5);
        let e = w.exp();
        assert!(close(e, Complex64::cis(0.5) * 1.0f64.exp(), 1e-12));
    }

    #[test]
    fn cis_is_unit_phasor() {
        for k in 0..16 {
            let th = k as f64 * 0.4321;
            let p = Complex64::cis(th);
            assert!((p.abs() - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn sqrt_squares_back() {
        for &z in &[
            c64(2.0, 3.0),
            c64(-1.0, 0.5),
            c64(0.0, -4.0),
            c64(-2.0, -0.1),
        ] {
            let s = z.sqrt();
            assert!(close(s * s, z, 1e-12), "sqrt({z:?})² = {:?}", s * s);
            assert!(s.re >= 0.0, "principal branch");
        }
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let z = c64(0.9, 0.4);
        let mut acc = Complex64::ONE;
        for n in 0..8 {
            assert!(close(z.powi(n), acc, 1e-12));
            acc *= z;
        }
        assert!(close(z.powi(-3), (z * z * z).inv(), 1e-12));
    }

    #[test]
    fn mixed_real_ops() {
        let z = c64(1.0, -1.0);
        assert_eq!(z * 2.0, c64(2.0, -2.0));
        assert_eq!(2.0 * z, c64(2.0, -2.0));
        assert_eq!(z + 1.0, c64(2.0, -1.0));
        assert_eq!(1.0 - z, c64(0.0, 1.0));
        assert!(close(1.0 / z, z.inv(), 1e-14));
    }

    #[test]
    fn sum_iterators() {
        let v = vec![c64(1.0, 1.0); 10];
        let s: Complex64 = v.iter().sum();
        assert_eq!(s, c64(10.0, 10.0));
        let s2: Complex64 = v.into_iter().sum();
        assert_eq!(s2, c64(10.0, 10.0));
    }

    #[test]
    fn debug_format_is_nonempty() {
        let s = format!("{:?}", c64(1.0, -2.0));
        assert!(s.contains('i'));
        assert!(!s.is_empty());
    }

    #[test]
    fn slice_kernels_match_scalar_ops() {
        let a = c64(0.7, -1.3);
        let x: Vec<Complex64> = (0..17)
            .map(|i| c64(i as f64 * 0.3, 1.0 - i as f64 * 0.1))
            .collect();
        let mut y: Vec<Complex64> = (0..17).map(|i| c64(-(i as f64), 0.5 * i as f64)).collect();
        let expect: Vec<Complex64> = y.iter().zip(&x).map(|(&yi, &xi)| yi - xi * a).collect();
        axpy_neg(a, &x, &mut y);
        for (p, q) in y.iter().zip(&expect) {
            assert!((*p - *q).abs() < 1e-14);
        }

        let mut z = x.clone();
        scal(a, &mut z);
        for (p, &xi) in z.iter().zip(&x) {
            assert!((*p - xi * a).abs() < 1e-14);
        }
    }

    #[test]
    fn axpy_and_vector_kernels_match_scalar_ops() {
        let a = c64(-0.4, 0.9);
        let x: Vec<Complex64> = (0..13)
            .map(|i| c64(0.2 * i as f64, -0.7 + i as f64))
            .collect();
        let w: Vec<Complex64> = (0..13)
            .map(|i| c64(1.0 - i as f64, 0.05 * i as f64))
            .collect();
        let mut y: Vec<Complex64> = (0..13).map(|i| c64(i as f64, -(i as f64))).collect();
        let expect: Vec<Complex64> = y.iter().zip(&x).map(|(&yi, &xi)| yi + xi * a).collect();
        axpy(a, &x, &mut y);
        for (p, q) in y.iter().zip(&expect) {
            assert!((*p - *q).abs() < 1e-14);
        }

        let mut z = vec![Complex64::ZERO; 13];
        vmul(&w, &x, &mut z);
        for ((p, &wi), &xi) in z.iter().zip(&w).zip(&x) {
            assert!((*p - wi * xi).abs() < 1e-14);
        }
        let snapshot = y.clone();
        vmul_add(&w, &x, &mut y);
        for (((p, &yi0), &wi), &xi) in y.iter().zip(&snapshot).zip(&w).zip(&x) {
            assert!((*p - (yi0 + wi * xi)).abs() < 1e-14);
        }
    }
}
