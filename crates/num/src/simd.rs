//! Runtime-dispatched AVX kernels for the interleaved-complex update
//! `y[i] -= a·x[i]` and the dot product `Σ x[i]·y[i]`.
//!
//! The banded LU ([`crate::banded`]) spends nearly all of its time in the
//! first shape: the rank-1 trailing update of `factor_kernel`, both
//! substitution sweeps of [`crate::banded::BandedLu::solve_many`] and the
//! single-precision preconditioner sweeps of
//! [`crate::banded::BandedLuF32`]. The Krylov vector stages use it too,
//! and so do the update and the forward sweep of
//! [`crate::banded::BandedLdl`], whose `Lᵀ` back sweep is the dot
//! product.
//! The default release build has no `target-cpu`, so LLVM compiles the
//! portable loop for baseline x86-64 (SSE2), where the interleaved re/im
//! shuffle keeps it scalar; even with `-C target-cpu=native` the portable
//! loop factors at about half the speed of these kernels. The kernels
//! here use AVX explicitly; AVX is detected once per process ([`avx`])
//! and the portable loops remain the fallback on every other host.
//!
//! **Bit-identical to the portable loops.** Each kernel uses only `mul`,
//! an in-lane permute, `addsub` and one `sub` — no FMA — so every element
//! is computed by exactly the scalar expressions
//!
//! ```text
//! y.re - (x.re·a.re − x.im·a.im)
//! y.im - (x.im·a.re + x.re·a.im)
//! ```
//!
//! (IEEE addition is commutative, so the swapped order of the `im` sum is
//! exact). The dot product adds its products in one fixed order, the
//! same on both paths (see [`dotu_avx`]).

#[cfg(target_arch = "x86_64")]
use crate::{banded::axpy_neg32_scalar, complex::axpy_neg_scalar, Complex64};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    _mm256_add_pd, _mm256_addsub_pd, _mm256_addsub_ps, _mm256_loadu_pd, _mm256_loadu_ps,
    _mm256_movedup_pd, _mm256_mul_pd, _mm256_mul_ps, _mm256_permute_pd, _mm256_permute_ps,
    _mm256_set1_pd, _mm256_set1_ps, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_storeu_ps,
    _mm256_sub_pd, _mm256_sub_ps,
};

/// `true` when this process may run the AVX kernels. The standard
/// library runs CPUID once per process and caches the feature bits, so
/// each call is one atomic load, not a CPUID.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn avx() -> bool {
    std::arch::is_x86_feature_detected!("avx")
}

/// `y[i] -= a·x[i]` over `f64` complex slices, two elements per 256-bit
/// register; an odd tail element takes the portable loop.
///
/// # Safety
///
/// The CPU must support AVX ([`avx`] returned `true`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
pub(crate) unsafe fn axpy_neg_avx(a: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    debug_assert_eq!(x.len(), y.len());
    let ar = _mm256_set1_pd(a.re);
    let ai = _mm256_set1_pd(a.im);
    let mut xs = x.chunks_exact(2);
    let mut ys = y.chunks_exact_mut(2);
    for (yc, xc) in (&mut ys).zip(&mut xs) {
        // SAFETY: `Complex64` is `repr(C)` with two `f64` fields, so each
        // two-element chunk is four contiguous `f64`: exactly one unaligned
        // 256-bit load/store, inside the chunk.
        let (xv, yv) = unsafe {
            (
                _mm256_loadu_pd(xc.as_ptr().cast()),
                _mm256_loadu_pd(yc.as_ptr().cast()),
            )
        };
        // [x.re·a.re, x.im·a.re] ∓ [x.im·a.im, x.re·a.im]
        let re_part = _mm256_mul_pd(xv, ar);
        let im_part = _mm256_mul_pd(_mm256_permute_pd(xv, 0b0101), ai);
        let ax = _mm256_addsub_pd(re_part, im_part);
        // SAFETY: as above, the store covers exactly `yc`.
        unsafe { _mm256_storeu_pd(yc.as_mut_ptr().cast(), _mm256_sub_pd(yv, ax)) };
    }
    axpy_neg_scalar(a, xs.remainder(), ys.into_remainder());
}

/// The unconjugated dot product `Σ x[i]·y[i]` over `f64` complex slices:
/// one 256-bit accumulator holds the running sums of the even and the odd
/// positions, which are added at the end; an odd last product takes the
/// portable expression. Each product takes the two `mul`s and the
/// `addsub` of [`axpy_neg_avx`], the exact operations of `Complex64`'s
/// `*`, so the result is bit-identical to [`crate::complex::dotu_scalar`].
///
/// # Safety
///
/// The CPU must support AVX ([`avx`] returned `true`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
pub(crate) unsafe fn dotu_avx(x: &[Complex64], y: &[Complex64]) -> Complex64 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = _mm256_setzero_pd();
    let (mut xs, mut ys) = (x.chunks_exact(2), y.chunks_exact(2));
    for (xc, yc) in (&mut xs).zip(&mut ys) {
        // SAFETY: as in `axpy_neg_avx`, each chunk is four contiguous f64.
        let (xv, yv) = unsafe {
            (
                _mm256_loadu_pd(xc.as_ptr().cast()),
                _mm256_loadu_pd(yc.as_ptr().cast()),
            )
        };
        // [x.re·y.re, x.im·y.re] ∓ [x.im·y.im, x.re·y.im]
        let re_part = _mm256_mul_pd(xv, _mm256_movedup_pd(yv));
        let im_part = _mm256_mul_pd(_mm256_permute_pd(xv, 0b0101), _mm256_permute_pd(yv, 0b1111));
        acc = _mm256_add_pd(acc, _mm256_addsub_pd(re_part, im_part));
    }
    let mut lanes = [Complex64::ZERO; 2];
    // SAFETY: two `Complex64` are four contiguous f64: one 256-bit store.
    unsafe { _mm256_storeu_pd(lanes.as_mut_ptr().cast(), acc) };
    let mut sum = lanes[0] + lanes[1];
    if let ([a], [b]) = (xs.remainder(), ys.remainder()) {
        sum += *a * *b;
    }
    sum
}

/// `y[i] -= a·x[i]` over interleaved-complex `f32` slices, four elements
/// (eight floats) per 256-bit register; the tail takes the portable loop.
///
/// # Safety
///
/// The CPU must support AVX ([`avx`] returned `true`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
pub(crate) unsafe fn axpy_neg32_avx(a_re: f32, a_im: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let ar = _mm256_set1_ps(a_re);
    let ai = _mm256_set1_ps(a_im);
    let mut xs = x.chunks_exact(8);
    let mut ys = y.chunks_exact_mut(8);
    for (yc, xc) in (&mut ys).zip(&mut xs) {
        // SAFETY: each chunk is exactly eight contiguous `f32`: one
        // unaligned 256-bit load/store, inside the chunk.
        let (xv, yv) = unsafe { (_mm256_loadu_ps(xc.as_ptr()), _mm256_loadu_ps(yc.as_ptr())) };
        // Swap re/im within every pair: [1, 0, 3, 2] per 128-bit lane.
        let re_part = _mm256_mul_ps(xv, ar);
        let im_part = _mm256_mul_ps(_mm256_permute_ps(xv, 0b10_11_00_01), ai);
        let ax = _mm256_addsub_ps(re_part, im_part);
        // SAFETY: as above, the store covers exactly `yc`.
        unsafe { _mm256_storeu_ps(yc.as_mut_ptr(), _mm256_sub_ps(yv, ax)) };
    }
    axpy_neg32_scalar(a_re, a_im, xs.remainder(), ys.into_remainder());
}

/// Bit-identity of the dispatched kernels against the portable loops. On
/// a host without AVX both sides take the portable path, so these tests
/// then pass trivially; the AVX side runs wherever AVX is detected.
#[cfg(test)]
mod tests {
    use crate::banded::BandedMatrix;
    use crate::complex::{axpy_neg, axpy_neg_scalar, dotu, dotu_scalar};
    use crate::{c64, Complex64};

    /// Deterministic xorshift values in roughly `[-4, 4)`.
    fn values(seed: u64, len: usize) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                let v = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
                8.0 * ((v >> 11) as f64 / (1u64 << 53) as f64) - 4.0
            })
            .collect()
    }

    /// Random values with ±0, subnormals (of `f64`, and of `f32` once
    /// narrowed) and ±∞ sprinkled in (no NaN).
    fn specials(seed: u64, len: usize) -> Vec<f64> {
        const SPECIAL: [f64; 10] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 8.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e-300,
            1e-40,
            -3e-42,
        ];
        values(seed, len)
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                if (i * 7 + seed as usize).is_multiple_of(3) {
                    SPECIAL[(i + seed as usize) % SPECIAL.len()]
                } else {
                    v
                }
            })
            .collect()
    }

    fn complexes(v: &[f64]) -> Vec<Complex64> {
        v.chunks_exact(2).map(|p| c64(p[0], p[1])).collect()
    }

    fn bits64(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// Bit equality, except that any NaN matches any NaN: `∞·0` and
    /// `∞ − ∞` produce NaNs whose payload the ISA does not pin down.
    fn same(p: f64, q: f64) -> bool {
        p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan())
    }

    fn check_f64(gen: fn(u64, usize) -> Vec<f64>) {
        for len in 0..=33usize {
            for seed in 1..=6u64 {
                let raw = gen(seed * 101 + len as u64, 4 * len + 2);
                let a = c64(raw[0], raw[1]);
                let x = complexes(&raw[2..2 + 2 * len]);
                let y0 = complexes(&raw[2 + 2 * len..]);
                let (mut fast, mut slow) = (y0.clone(), y0);
                axpy_neg(a, &x, &mut fast);
                axpy_neg_scalar(a, &x, &mut slow);
                for (i, (p, q)) in fast.iter().zip(&slow).enumerate() {
                    assert!(
                        same(p.re, q.re) && same(p.im, q.im),
                        "len {len} seed {seed} elem {i}: {p:?} vs {q:?}"
                    );
                }
            }
        }
    }

    fn check_f32(gen: fn(u64, usize) -> Vec<f64>) {
        for len in 0..=33usize {
            for seed in 1..=6u64 {
                let raw: Vec<f32> = gen(seed * 103 + len as u64, 4 * len + 2)
                    .into_iter()
                    .map(|v| v as f32)
                    .collect();
                let (a_re, a_im) = (raw[0], raw[1]);
                let x = &raw[2..2 + 2 * len];
                let y0 = raw[2 + 2 * len..].to_vec();
                let (mut fast, mut slow) = (y0.clone(), y0);
                crate::banded::axpy_neg32(a_re, a_im, x, &mut fast);
                crate::banded::axpy_neg32_scalar(a_re, a_im, x, &mut slow);
                for (i, (p, q)) in fast.iter().zip(&slow).enumerate() {
                    assert!(
                        same(*p as f64, *q as f64),
                        "len {len} seed {seed} float {i}: {p} vs {q}"
                    );
                }
            }
        }
    }

    fn check_dotu(gen: fn(u64, usize) -> Vec<f64>) {
        for len in 0..=33usize {
            for seed in 1..=6u64 {
                let raw = gen(seed * 107 + len as u64, 4 * len);
                let (x, y) = (complexes(&raw[..2 * len]), complexes(&raw[2 * len..]));
                let (p, q) = (dotu(&x, &y), dotu_scalar(&x, &y));
                assert!(
                    same(p.re, q.re) && same(p.im, q.im),
                    "len {len} seed {seed}: {p:?} vs {q:?}"
                );
            }
        }
    }

    #[test]
    fn dispatched_dotu_is_bit_identical_on_random_values() {
        check_dotu(values);
    }

    #[test]
    fn dispatched_dotu_is_bit_identical_on_zeros_subnormals_and_infinities() {
        check_dotu(specials);
    }

    #[test]
    fn dispatched_axpy_neg_is_bit_identical_on_random_values() {
        check_f64(values);
    }

    #[test]
    fn dispatched_axpy_neg_is_bit_identical_on_zeros_subnormals_and_infinities() {
        check_f64(specials);
    }

    #[test]
    fn dispatched_axpy_neg32_is_bit_identical_on_random_values() {
        check_f32(values);
    }

    #[test]
    fn dispatched_axpy_neg32_is_bit_identical_on_zeros_subnormals_and_infinities() {
        check_f32(specials);
    }

    /// NaN payloads and signs may legitimately differ between paths; the
    /// contract is only that a NaN input yields a NaN output where the
    /// portable loop yields one, and identical bits everywhere else.
    #[test]
    fn dispatched_kernels_propagate_nan() {
        for len in 1..=33usize {
            let raw = values(len as u64, 4 * len + 2);
            let a = c64(raw[0], raw[1]);
            let mut x = complexes(&raw[2..2 + 2 * len]);
            x[len / 2].im = f64::NAN;
            let y0 = complexes(&raw[2 + 2 * len..]);
            let (mut fast, mut slow) = (y0.clone(), y0.clone());
            axpy_neg(a, &x, &mut fast);
            axpy_neg_scalar(a, &x, &mut slow);
            for (i, (p, q)) in fast.iter().zip(&slow).enumerate() {
                if i == len / 2 {
                    assert!(p.re.is_nan() && p.im.is_nan() && q.re.is_nan() && q.im.is_nan());
                } else {
                    assert_eq!(bits64(&[*p]), bits64(&[*q]), "len {len} elem {i}");
                }
            }
            // A NaN multiplier poisons every element.
            let (mut fast, mut slow) = (y0.clone(), y0);
            axpy_neg(c64(f64::NAN, 1.0), &x, &mut fast);
            axpy_neg_scalar(c64(f64::NAN, 1.0), &x, &mut slow);
            for (p, q) in fast.iter().zip(&slow) {
                assert_eq!(
                    (p.re.is_nan(), p.im.is_nan()),
                    (q.re.is_nan(), q.im.is_nan())
                );
            }

            let xf: Vec<f32> = x.iter().flat_map(|z| [z.re as f32, z.im as f32]).collect();
            let y0f: Vec<f32> = raw[2 + 2 * len..].iter().map(|&v| v as f32).collect();
            let (mut fast, mut slow) = (y0f.clone(), y0f);
            crate::banded::axpy_neg32(0.5, -1.5, &xf, &mut fast);
            crate::banded::axpy_neg32_scalar(0.5, -1.5, &xf, &mut slow);
            for (i, (p, q)) in fast.iter().zip(&slow).enumerate() {
                if i / 2 == len / 2 {
                    assert!(p.is_nan() && q.is_nan(), "len {len} float {i}");
                } else {
                    assert_eq!(p.to_bits(), q.to_bits(), "len {len} float {i}");
                }
            }
        }
    }

    /// A 2-D 5-point Helmholtz-like operator (`nx` fast axis, so
    /// `kl = ku = nx`) with a weak diagonal in the interior of the domain,
    /// so partial pivoting swaps rows.
    fn pivoting_fdfd_operator(nx: usize, ny: usize) -> BandedMatrix {
        let n = nx * ny;
        let mut a = BandedMatrix::new(n, nx, nx);
        for y in 0..ny {
            for x in 0..nx {
                let i = y * nx + x;
                let k2 = 4.0 + 1.7 * ((x * 3 + y * 5) % 7) as f64 - 5.0;
                a.set(i, i, c64(k2 - 4.0, 0.01 * (x as f64 - y as f64)));
                if x > 0 {
                    a.set(i, i - 1, c64(1.0, 0.0));
                }
                if x + 1 < nx {
                    a.set(i, i + 1, c64(1.0, 0.0));
                }
                if y > 0 {
                    a.set(i, i - nx, c64(1.0, -0.02));
                }
                if y + 1 < ny {
                    a.set(i, i + nx, c64(1.0, 0.02));
                }
            }
        }
        a
    }

    #[test]
    fn dispatched_factor_is_bit_identical_to_the_portable_kernel() {
        for &(nx, ny) in &[(7usize, 9usize), (12, 10), (17, 6)] {
            let a = pivoting_fdfd_operator(nx, ny);
            let lu = a.clone().factor().unwrap();
            let (ab_slow, ipiv_slow) = a.factor_portable().unwrap();
            let (ab_fast, ipiv_fast) = lu.raw_parts();
            assert!(
                ipiv_fast.iter().enumerate().any(|(j, &p)| p != j),
                "{nx}×{ny}: operator must pivot"
            );
            assert_eq!(ipiv_fast, &ipiv_slow[..], "{nx}×{ny} ipiv");
            assert_eq!(bits64(ab_fast), bits64(&ab_slow), "{nx}×{ny} factors");
        }
    }
}
