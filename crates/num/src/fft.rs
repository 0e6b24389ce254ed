//! Radix-2 fast Fourier transforms (1-D and 2-D).
//!
//! The lithography model performs its convolutions in the frequency domain;
//! these transforms are the only FFTs the workspace needs, so they are kept
//! deliberately simple: power-of-two lengths, iterative Cooley–Tukey with
//! each stage's twiddles built by repeated multiplication.
//!
//! Every 2-D transform runs through one kernel, [`fft2_lines`]: 1-D
//! transforms of a chosen set of rows, then of a chosen set of columns,
//! unnormalised. [`fft2`]/[`ifft2`] are its all-rows/all-columns case
//! (plus `1/(rows·cols)` for the inverse); the lithography model lists
//! only the rows that carry data and the columns that are read — the
//! pupil's passband and the mask window — and gets the same values bit
//! for bit where it reads them.
//!
//! Conventions: [`fft`] computes `X[k] = Σ_n x[n] e^{-2πi nk/N}` (negative
//! exponent forward), [`ifft`] the inverse including the `1/N` factor, so
//! `ifft(fft(x)) == x`.
//!
//! # Examples
//!
//! ```
//! use boson_num::{fft::{fft, ifft}, Complex64};
//!
//! let mut x = vec![Complex64::ZERO; 8];
//! x[1] = Complex64::ONE;            // a unit impulse at n=1
//! let mut y = x.clone();
//! fft(&mut y);
//! // |X[k]| == 1 for every bin of an impulse
//! assert!(y.iter().all(|v| (v.abs() - 1.0).abs() < 1e-12));
//! ifft(&mut y);
//! for (a, b) in x.iter().zip(&y) {
//!     assert!((*a - *b).abs() < 1e-12);
//! }
//! ```

use crate::{Array2, Complex64};

/// Returns the smallest power of two `>= n` (and `>= 1`).
///
/// ```
/// assert_eq!(boson_num::fft::next_pow2(1), 1);
/// assert_eq!(boson_num::fft::next_pow2(5), 8);
/// assert_eq!(boson_num::fft::next_pow2(64), 64);
/// ```
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

fn bit_reverse_permute(x: &mut [Complex64]) {
    let n = x.len();
    let mut j = 0usize;
    for i in 0..n {
        if i < j {
            x.swap(i, j);
        }
        let mut m = n >> 1;
        while m >= 1 && j & m != 0 {
            j ^= m;
            m >>= 1;
        }
        j |= m;
    }
}

fn fft_inner(x: &mut [Complex64], inverse: bool) {
    let n = x.len();
    assert!(n.is_power_of_two(), "fft length {n} must be a power of two");
    if n <= 1 {
        return;
    }
    bit_reverse_permute(x);
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex64::cis(ang);
        let half = len / 2;
        let mut i = 0;
        while i < n {
            let mut w = Complex64::ONE;
            for k in 0..half {
                let u = x[i + k];
                let v = x[i + k + half] * w;
                x[i + k] = u + v;
                x[i + k + half] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// In-place forward FFT (negative exponent, no normalisation).
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two.
pub fn fft(x: &mut [Complex64]) {
    fft_inner(x, false);
}

/// In-place inverse FFT including the `1/N` normalisation.
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two.
pub fn ifft(x: &mut [Complex64]) {
    fft_inner(x, true);
    let scale = 1.0 / x.len() as f64;
    for v in x.iter_mut() {
        *v *= scale;
    }
}

/// In-place 2-D forward FFT over an `Array2` whose dimensions are powers of
/// two: transforms all rows, then all columns.
///
/// # Panics
///
/// Panics if either dimension is not a power of two.
pub fn fft2(a: &mut Array2<Complex64>) {
    fft2_full(a, false);
}

/// In-place 2-D inverse FFT (normalised by `1/(rows·cols)`).
///
/// # Panics
///
/// Panics if either dimension is not a power of two.
pub fn ifft2(a: &mut Array2<Complex64>) {
    fft2_full(a, true);
    let (rows, cols) = a.shape();
    let scale = 1.0 / (rows * cols) as f64;
    a.apply(|v| *v *= scale);
}

fn fft2_full(a: &mut Array2<Complex64>, inverse: bool) {
    let (rows, cols) = a.shape();
    let all_rows: Vec<usize> = (0..rows).collect();
    let all_cols: Vec<usize> = (0..cols).collect();
    fft2_lines(a, &all_rows, &all_cols, inverse);
}

/// In-place partial 2-D transform, unnormalised: the 1-D transform
/// (inverse exponent if `inverse`) of each of `rows` along its length,
/// then of each of `cols` along its length, in that order.
///
/// With every row and column listed this is [`fft2`] (and, times
/// `1/(rows·cols)`, [`ifft2`]). Listing fewer is exact where it is read:
/// a row left out whose entries are all zero would have transformed to
/// zeros, and a column left out holds its row-transformed values
/// unchanged — so the kept columns equal the whole transform's
/// bit for bit, up to the sign of an exact zero.
///
/// # Panics
///
/// Panics if either dimension is not a power of two, or an index is out
/// of range.
pub fn fft2_lines(a: &mut Array2<Complex64>, rows: &[usize], cols: &[usize], inverse: bool) {
    let (nr, nc) = a.shape();
    assert!(
        nr.is_power_of_two() && nc.is_power_of_two(),
        "fft2 dimensions {nr}x{nc} must be powers of two"
    );
    // Rows are contiguous in memory.
    {
        let data = a.as_mut_slice();
        for &r in rows {
            fft_inner(&mut data[r * nc..(r + 1) * nc], inverse);
        }
    }
    // Columns via a scratch buffer.
    let mut colbuf = vec![Complex64::ZERO; nr];
    for &c in cols {
        for r in 0..nr {
            colbuf[r] = a[(r, c)];
        }
        fft_inner(&mut colbuf, inverse);
        for r in 0..nr {
            a[(r, c)] = colbuf[r];
        }
    }
}

/// Frequency coordinate of bin `k` for an `n`-point FFT with sample pitch
/// `d`: the analogue of `numpy.fft.fftfreq`.
///
/// ```
/// use boson_num::fft::freq_coord;
/// assert_eq!(freq_coord(0, 8, 1.0), 0.0);
/// assert_eq!(freq_coord(1, 8, 1.0), 0.125);
/// assert_eq!(freq_coord(7, 8, 1.0), -0.125);
/// ```
pub fn freq_coord(k: usize, n: usize, d: f64) -> f64 {
    let kk = if k < n / 2 || n == 1 {
        k as f64
    } else {
        k as f64 - n as f64
    };
    kk / (n as f64 * d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    fn assert_close(a: Complex64, b: Complex64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a:?} != {b:?}");
    }

    #[test]
    fn dft_of_constant_is_delta() {
        let mut x = vec![Complex64::ONE; 16];
        fft(&mut x);
        assert_close(x[0], c64(16.0, 0.0), 1e-12);
        for v in &x[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn dft_of_single_tone() {
        let n = 32;
        let k0 = 5;
        let mut x: Vec<Complex64> = (0..n)
            .map(|nn| Complex64::cis(2.0 * std::f64::consts::PI * (k0 * nn) as f64 / n as f64))
            .collect();
        fft(&mut x);
        for (k, v) in x.iter().enumerate() {
            if k == k0 {
                assert_close(*v, c64(n as f64, 0.0), 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leakage at bin {k}: {v:?}");
            }
        }
    }

    #[test]
    fn round_trip_1d() {
        let x: Vec<Complex64> = (0..64)
            .map(|i| c64((i as f64).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let mut y = x.clone();
        fft(&mut y);
        ifft(&mut y);
        for (a, b) in x.iter().zip(&y) {
            assert_close(*a, *b, 1e-10);
        }
    }

    #[test]
    fn round_trip_2d() {
        let a = Array2::from_fn(8, 16, |r, c| {
            c64((r as f64 * 0.7).sin(), (c as f64 * 0.2).cos())
        });
        let mut b = a.clone();
        fft2(&mut b);
        ifft2(&mut b);
        for (idx, v) in a.indexed_iter() {
            assert_close(*v, b[idx], 1e-10);
        }
    }

    #[test]
    fn partial_transform_matches_whole_on_kept_columns() {
        // Data on a few rows only; every other row is zero.
        let (nr, nc) = (16, 32);
        let rows = [2, 3, 4, 11];
        let cols = [0, 1, 5, 17, 30, 31];
        let a = Array2::from_fn(nr, nc, |r, c| {
            if rows.contains(&r) {
                c64((r as f64 * 0.7 + c as f64).sin(), (c as f64 * 0.3).cos())
            } else {
                Complex64::ZERO
            }
        });
        for inverse in [false, true] {
            let mut whole = a.clone();
            let mut part = a.clone();
            fft2_lines(&mut part, &rows, &cols, inverse);
            if inverse {
                ifft2(&mut whole);
                let scale = 1.0 / (nr * nc) as f64;
                part.apply(|v| *v *= scale);
            } else {
                fft2(&mut whole);
            }
            for r in 0..nr {
                for &c in &cols {
                    // `==` on the parts: equal bits, up to the sign of a zero.
                    assert_eq!(
                        part[(r, c)],
                        whole[(r, c)],
                        "inverse {inverse} at ({r}, {c})"
                    );
                }
            }
        }
    }

    #[test]
    fn parseval_2d() {
        let a = Array2::from_fn(8, 8, |r, c| {
            c64((r * c) as f64 * 0.01, (r + c) as f64 * 0.02)
        });
        let mut f = a.clone();
        fft2(&mut f);
        let e_time: f64 = a.as_slice().iter().map(|v| v.norm_sqr()).sum();
        let e_freq: f64 = f.as_slice().iter().map(|v| v.norm_sqr()).sum::<f64>() / 64.0;
        assert!((e_time - e_freq).abs() < 1e-9 * e_time.max(1.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_panics() {
        let mut x = vec![Complex64::ZERO; 12];
        fft(&mut x);
    }

    #[test]
    fn freq_coords_symmetric() {
        let n = 16;
        let freqs: Vec<f64> = (0..n).map(|k| freq_coord(k, n, 0.5)).collect();
        assert_eq!(freqs[0], 0.0);
        assert!(freqs[1] > 0.0);
        assert!(freqs[n - 1] < 0.0);
        assert!((freqs[1] + freqs[n - 1]).abs() < 1e-15);
    }
}
