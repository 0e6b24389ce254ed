//! The differentiable lithography forward model.
//!
//! [`LithoModel`] turns a binary/continuous mask into an aerial intensity
//! image for each process corner, and provides the exact vector–Jacobian
//! product so gradients can flow *through* the fabrication model back to
//! the design variables — the key enabler of the paper's
//! fabrication-restricted subspace optimisation (§III-C).

use crate::kernels::{source_points, transfer_function, LithoConfig, LithoCorner};
use boson_num::fft::{fft2_lines, next_pow2};
use boson_num::{Array2, Complex64};

/// A lithography imaging model for masks of a fixed shape.
///
/// Kernels for all three corners are precomputed at construction, with
/// the rows and columns of the padded grid on which each is non-zero
/// (its pupil's passband). The transforms touch only lines that carry
/// data or are read: with `R_s`/`C_s` the passband rows/columns of
/// source `s`, `U` the union of the `C_s` and an `h × w` mask, an
/// [`LithoModel::aerial_image`] call costs `h + |U| + Σ_s (|R_s| + w)`
/// 1-D transforms and a [`LithoModel::vjp`] call `Σ_s (h + |C_s| +
/// |R_s| + w)`, against `(1 + S)·(P_r + P_c)` and `2·S·(P_r + P_c)` for
/// whole `P_r × P_c` 2-D FFTs (S = source points). On the bend's 28×28
/// window (64×64 padded, 5 sources, `|R_s|, |C_s|` 19 or 20, `|U| =
/// 27`) that is 292 and 474 length-64 transforms against 768 and 1,280.
#[derive(Debug, Clone)]
pub struct LithoModel {
    mask_rows: usize,
    mask_cols: usize,
    pad_rows: usize,
    pad_cols: usize,
    config: LithoConfig,
    /// Per corner, in [`LithoCorner::ALL`] order.
    kernels: Vec<CornerKernels>,
    /// Rows of the padded grid the mask occupies.
    window_rows: Vec<usize>,
    /// Columns of the padded grid the mask occupies.
    window_cols: Vec<usize>,
}

/// One corner's transfer functions and where they are non-zero.
#[derive(Debug, Clone)]
struct CornerKernels {
    dose: f64,
    /// `H_s` per source, in FFT layout.
    hs: Vec<Array2<Complex64>>,
    /// Per source, the ascending rows and columns on which `H_s ≠ 0`.
    support: Vec<(Vec<usize>, Vec<usize>)>,
    /// The union of every source's support columns, ascending.
    cols: Vec<usize>,
}

impl CornerKernels {
    fn new(dose: f64, hs: Vec<Array2<Complex64>>) -> Self {
        let support: Vec<(Vec<usize>, Vec<usize>)> = hs
            .iter()
            .map(|h| {
                let (rows, cols) = h.shape();
                let live = |r: usize, c: usize| h[(r, c)] != Complex64::ZERO;
                (
                    (0..rows)
                        .filter(|&r| (0..cols).any(|c| live(r, c)))
                        .collect(),
                    (0..cols)
                        .filter(|&c| (0..rows).any(|r| live(r, c)))
                        .collect(),
                )
            })
            .collect();
        let mut cols: Vec<usize> = support.iter().flat_map(|(_, c)| c.clone()).collect();
        cols.sort_unstable();
        cols.dedup();
        Self {
            dose,
            hs,
            support,
            cols,
        }
    }
}

/// The cells `rows × cols`, row by row.
fn cells<'a>(rows: &'a [usize], cols: &'a [usize]) -> impl Iterator<Item = (usize, usize)> + 'a {
    rows.iter()
        .flat_map(move |&r| cols.iter().map(move |&c| (r, c)))
}

/// The result of one forward imaging pass, retaining the per-source
/// amplitudes needed by the backward pass.
#[derive(Debug, Clone)]
pub struct AerialImage {
    /// Intensity on the mask grid (same shape as the input mask).
    pub intensity: Array2<f64>,
    corner_index: usize,
    /// Per-source complex amplitudes on the mask grid.
    amplitudes: Vec<Array2<Complex64>>,
}

impl LithoModel {
    /// Builds a model for `rows × cols` masks sampled at `dx` µm.
    ///
    /// # Panics
    ///
    /// Panics if the mask is empty.
    pub fn new(rows: usize, cols: usize, dx: f64, config: LithoConfig) -> Self {
        assert!(rows > 0 && cols > 0, "mask must be non-empty");
        // Pad by at least 16 cells each side to kill circular wrap-around,
        // then round up to a power of two for the FFT.
        let pad_rows = next_pow2(rows + 32);
        let pad_cols = next_pow2(cols + 32);
        let pts = source_points(&config);
        let kernels = LithoCorner::ALL
            .iter()
            .map(|&corner| {
                let (z, dose) = corner.settings(&config);
                let hs = pts
                    .iter()
                    .map(|s| transfer_function(pad_rows, pad_cols, dx, &config, s, z))
                    .collect();
                CornerKernels::new(dose, hs)
            })
            .collect();
        let r0 = (pad_rows - rows) / 2;
        let c0 = (pad_cols - cols) / 2;
        Self {
            mask_rows: rows,
            mask_cols: cols,
            pad_rows,
            pad_cols,
            config,
            kernels,
            window_rows: (r0..r0 + rows).collect(),
            window_cols: (c0..c0 + cols).collect(),
        }
    }

    /// The optical configuration.
    pub fn config(&self) -> &LithoConfig {
        &self.config
    }

    fn corner_index(corner: LithoCorner) -> usize {
        match corner {
            LithoCorner::Min => 0,
            LithoCorner::Nominal => 1,
            LithoCorner::Max => 2,
        }
    }

    /// The padded-grid position of the mask's `(0, 0)` cell: the mask is
    /// embedded centred.
    fn origin(&self) -> (usize, usize) {
        (self.window_rows[0], self.window_cols[0])
    }

    /// `1/(P_r·P_c)`, the normalisation of a whole inverse 2-D FFT.
    fn inverse_scale(&self) -> f64 {
        1.0 / (self.pad_rows * self.pad_cols) as f64
    }

    /// Computes the aerial intensity image of `mask` at `corner`.
    ///
    /// Only the mask's rows are forward-transformed and only the union
    /// of the passband columns kept; each source's product lives on its
    /// passband rows, and only the mask's columns are inverse-transformed
    /// — every value read is bit-identical to whole-array 2-D FFTs.
    ///
    /// # Panics
    ///
    /// Panics if `mask` does not have the model's shape.
    pub fn aerial_image(&self, mask: &Array2<f64>, corner: LithoCorner) -> AerialImage {
        assert_eq!(
            mask.shape(),
            (self.mask_rows, self.mask_cols),
            "mask shape mismatch"
        );
        let ci = Self::corner_index(corner);
        let k = &self.kernels[ci];
        let (r0, c0) = self.origin();
        let mut m = Array2::<Complex64>::zeros(self.pad_rows, self.pad_cols);
        for r in 0..self.mask_rows {
            for c in 0..self.mask_cols {
                m[(r0 + r, c0 + c)] = Complex64::from_real(mask[(r, c)]);
            }
        }
        fft2_lines(&mut m, &self.window_rows, &k.cols, false);

        let scale = self.inverse_scale();
        let weight = 1.0 / k.hs.len() as f64;
        let mut intensity = Array2::<f64>::zeros(self.mask_rows, self.mask_cols);
        let mut amplitudes = Vec::with_capacity(k.hs.len());
        let mut b = Array2::<Complex64>::zeros(self.pad_rows, self.pad_cols);
        for (h, (rows, cols)) in k.hs.iter().zip(&k.support) {
            b.as_mut_slice().fill(Complex64::ZERO);
            for (r, c) in cells(rows, cols) {
                b[(r, c)] = m[(r, c)] * h[(r, c)];
            }
            fft2_lines(&mut b, rows, &self.window_cols, true);
            let amplitude = Array2::from_fn(self.mask_rows, self.mask_cols, |r, c| {
                let mut v = b[(r0 + r, c0 + c)];
                v *= scale;
                v
            });
            for (idx, v) in amplitude.indexed_iter() {
                intensity[idx] += k.dose * weight * v.norm_sqr();
            }
            amplitudes.push(amplitude);
        }
        AerialImage {
            intensity,
            corner_index: ci,
            amplitudes,
        }
    }

    /// Vector–Jacobian product: given `v = ∂L/∂I` on the mask grid,
    /// returns `∂L/∂mask`.
    ///
    /// Per source, `2·Re(FFT(H ⊙ IFFT(u)))` with `u = dose·w·v ⊙ conj(a)`
    /// on the mask window: the inverse transform runs over the window's
    /// rows and the passband's columns, the forward one over the
    /// passband's rows and the window's columns — bit-identical to
    /// whole-array 2-D FFTs on the window.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch or `fwd` came from a different model
    /// shape.
    pub fn vjp(&self, fwd: &AerialImage, v: &Array2<f64>) -> Array2<f64> {
        assert_eq!(
            v.shape(),
            (self.mask_rows, self.mask_cols),
            "cotangent shape mismatch"
        );
        let k = &self.kernels[fwd.corner_index];
        let weight = 1.0 / k.hs.len() as f64;
        let scale = self.inverse_scale();
        let (r0, c0) = self.origin();
        let mut grad = Array2::<f64>::zeros(self.mask_rows, self.mask_cols);
        let mut u = Array2::<Complex64>::zeros(self.pad_rows, self.pad_cols);
        let mut product = Vec::new();
        for ((h, (rows, cols)), a) in k.hs.iter().zip(&k.support).zip(&fwd.amplitudes) {
            // u = (dose·w·v) ⊙ conj(a) on the padded grid.
            u.as_mut_slice().fill(Complex64::ZERO);
            for r in 0..self.mask_rows {
                for c in 0..self.mask_cols {
                    let vv = v[(r, c)] * k.dose * weight;
                    if vv != 0.0 {
                        u[(r0 + r, c0 + c)] = a[(r, c)].conj() * vv;
                    }
                }
            }
            // grad += 2·Re(FFT(H ⊙ IFFT(u))).
            fft2_lines(&mut u, &self.window_rows, cols, true);
            product.clear();
            product.extend(cells(rows, cols).map(|(r, c)| {
                let mut x = u[(r, c)];
                x *= scale;
                x * h[(r, c)]
            }));
            u.as_mut_slice().fill(Complex64::ZERO);
            for ((r, c), &x) in cells(rows, cols).zip(&product) {
                u[(r, c)] = x;
            }
            fft2_lines(&mut u, rows, &self.window_cols, false);
            for r in 0..self.mask_rows {
                for c in 0..self.mask_cols {
                    grad[(r, c)] += 2.0 * u[(r0 + r, c0 + c)].re;
                }
            }
        }
        grad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boson_num::fft::{fft2, ifft2};

    fn disc_mask(n: usize, radius_cells: f64) -> Array2<f64> {
        let c = n as f64 / 2.0;
        Array2::from_fn(n, n, |r, col| {
            let d = ((r as f64 - c).powi(2) + (col as f64 - c).powi(2)).sqrt();
            if d <= radius_cells {
                1.0
            } else {
                0.0
            }
        })
    }

    fn model(n: usize) -> LithoModel {
        LithoModel::new(n, n, 0.05, LithoConfig::default())
    }

    #[test]
    fn empty_mask_gives_dark_image() {
        let m = model(32);
        let img = m.aerial_image(&Array2::zeros(32, 32), LithoCorner::Nominal);
        assert!(img.intensity.max() < 1e-20);
    }

    #[test]
    fn large_pad_uniform_mask_is_bright_in_centre() {
        let m = model(48);
        let img = m.aerial_image(&Array2::filled(48, 48, 1.0), LithoCorner::Nominal);
        // Centre of a large clear field images to intensity ≈ 1.
        let centre = img.intensity[(24, 24)];
        assert!((centre - 1.0).abs() < 0.12, "centre intensity {centre}"); // Gibbs ringing from the hard pupil allows a few percent overshoot
    }

    #[test]
    fn subresolution_feature_is_wiped() {
        // A single-cell (50 nm) hole in a clear field is far below the
        // ~160 nm diffraction limit: the image barely dips.
        let m = model(48);
        let mut mask = Array2::filled(48, 48, 1.0);
        mask[(24, 24)] = 0.0;
        let img = m.aerial_image(&mask, LithoCorner::Nominal);
        let dip = 1.0 - img.intensity[(24, 24)];
        assert!(dip < 0.35, "sub-resolution dip too strong: {dip}");
        // Whereas a large hole does go dark.
        let mut mask2 = Array2::filled(48, 48, 1.0);
        for r in 16..32 {
            for c in 16..32 {
                mask2[(r, c)] = 0.0;
            }
        }
        let img2 = m.aerial_image(&mask2, LithoCorner::Nominal);
        assert!(img2.intensity[(24, 24)] < 0.2);
    }

    #[test]
    fn edges_are_smoothed() {
        // A sharp edge images to a gradual transition over ~λ/(2NA).
        let m = model(48);
        let mask = Array2::from_fn(48, 48, |_, c| if c >= 24 { 1.0 } else { 0.0 });
        let img = m.aerial_image(&mask, LithoCorner::Nominal);
        let mid = img.intensity[(24, 24)];
        // Edge intensity ≈ 0.25 for coherent, ~0.3-0.4 partially coherent.
        assert!(mid > 0.05 && mid < 0.7, "edge intensity {mid}");
        // Monotone-ish rise across the edge.
        assert!(img.intensity[(24, 20)] < img.intensity[(24, 28)]);
    }

    #[test]
    fn dose_corners_scale_intensity() {
        let m = model(32);
        let mask = disc_mask(32, 8.0);
        let i_min = m.aerial_image(&mask, LithoCorner::Min).intensity;
        let i_nom = m.aerial_image(&mask, LithoCorner::Nominal).intensity;
        let i_max = m.aerial_image(&mask, LithoCorner::Max).intensity;
        let c = (16, 16);
        assert!(i_min[c] < i_nom[c]);
        assert!(i_nom[c] < i_max[c]);
    }

    #[test]
    fn defocus_reduces_contrast() {
        let m = model(48);
        // Dense line pattern near the resolution limit.
        let mask = Array2::from_fn(48, 48, |_, c| if (c / 4) % 2 == 0 { 1.0 } else { 0.0 });
        let nom = m.aerial_image(&mask, LithoCorner::Nominal).intensity;
        let cfg = LithoConfig {
            dose_delta: 0.0, // isolate the defocus effect
            ..LithoConfig::default()
        };
        let m2 = LithoModel::new(48, 48, 0.05, cfg);
        let defoc = m2.aerial_image(&mask, LithoCorner::Max).intensity;
        let contrast = |img: &Array2<f64>| {
            let row = 24;
            let mut mx = 0.0f64;
            let mut mn = f64::INFINITY;
            for c in 12..36 {
                mx = mx.max(img[(row, c)]);
                mn = mn.min(img[(row, c)]);
            }
            (mx - mn) / (mx + mn)
        };
        assert!(
            contrast(&defoc) < contrast(&nom) + 1e-9,
            "defocus should not increase contrast: {} vs {}",
            contrast(&defoc),
            contrast(&nom)
        );
    }

    #[test]
    fn vjp_matches_finite_difference() {
        let n = 24;
        let m = model(n);
        let mask = disc_mask(n, 6.0);
        // Loss L = Σ w ⊙ I with a fixed random-ish weight field.
        let wfield = Array2::from_fn(n, n, |r, c| ((r * 7 + c * 13) % 5) as f64 * 0.25 - 0.5);
        for corner in LithoCorner::ALL {
            let fwd = m.aerial_image(&mask, corner);
            let grad = m.vjp(&fwd, &wfield);
            let h = 1e-6;
            for &(r, c) in &[(12usize, 12usize), (10, 14), (6, 6), (18, 11)] {
                let mut mp = mask.clone();
                mp[(r, c)] += h;
                let lp = m
                    .aerial_image(&mp, corner)
                    .intensity
                    .zip_map(&wfield, |a, b| a * b)
                    .sum();
                mp[(r, c)] -= 2.0 * h;
                let lm = m
                    .aerial_image(&mp, corner)
                    .intensity
                    .zip_map(&wfield, |a, b| a * b)
                    .sum();
                let fd = (lp - lm) / (2.0 * h);
                let ad = grad[(r, c)];
                assert!(
                    (fd - ad).abs() < 1e-6 + 1e-5 * fd.abs().max(ad.abs()),
                    "vjp mismatch at ({r},{c}) corner {corner:?}: fd={fd}, ad={ad}"
                );
            }
        }
    }

    /// The whole-array imaging model the pruned transforms replace:
    /// every transform a full 2-D FFT of the padded grid. Returns the
    /// intensity and the padded per-source amplitudes.
    fn reference_image(
        m: &LithoModel,
        mask: &Array2<f64>,
        corner: LithoCorner,
    ) -> (Array2<f64>, Vec<Array2<Complex64>>) {
        let k = &m.kernels[LithoModel::corner_index(corner)];
        let (r0, c0) = m.origin();
        let mut spectrum = Array2::<Complex64>::zeros(m.pad_rows, m.pad_cols);
        for r in 0..m.mask_rows {
            for c in 0..m.mask_cols {
                spectrum[(r0 + r, c0 + c)] = Complex64::from_real(mask[(r, c)]);
            }
        }
        fft2(&mut spectrum);
        let mut intensity_padded = Array2::<f64>::zeros(m.pad_rows, m.pad_cols);
        let mut amplitudes = Vec::new();
        let weight = 1.0 / k.hs.len() as f64;
        for h in &k.hs {
            let mut b = spectrum.zip_map(h, |a, b| *a * *b);
            ifft2(&mut b);
            for (idx, v) in b.indexed_iter() {
                intensity_padded[idx] += k.dose * weight * v.norm_sqr();
            }
            amplitudes.push(b);
        }
        let intensity = intensity_padded.window(r0, c0, m.mask_rows, m.mask_cols);
        (intensity, amplitudes)
    }

    /// The whole-array vector–Jacobian product over the padded
    /// amplitudes of [`reference_image`].
    fn reference_vjp(
        m: &LithoModel,
        corner: LithoCorner,
        amplitudes: &[Array2<Complex64>],
        v: &Array2<f64>,
    ) -> Array2<f64> {
        let k = &m.kernels[LithoModel::corner_index(corner)];
        let weight = 1.0 / k.hs.len() as f64;
        let (r0, c0) = m.origin();
        let mut grad_padded = Array2::<f64>::zeros(m.pad_rows, m.pad_cols);
        for (h, a) in k.hs.iter().zip(amplitudes) {
            let mut u = Array2::<Complex64>::zeros(m.pad_rows, m.pad_cols);
            for r in 0..m.mask_rows {
                for c in 0..m.mask_cols {
                    let vv = v[(r, c)] * k.dose * weight;
                    if vv != 0.0 {
                        u[(r0 + r, c0 + c)] = a[(r0 + r, c0 + c)].conj() * vv;
                    }
                }
            }
            ifft2(&mut u);
            let mut w = u.zip_map(h, |x, y| *x * *y);
            fft2(&mut w);
            for (idx, val) in w.indexed_iter() {
                grad_padded[idx] += 2.0 * val.re;
            }
        }
        grad_padded.window(r0, c0, m.mask_rows, m.mask_cols)
    }

    /// A reproducible field on `[lo, hi)` with runs of exact `lo`/`hi`
    /// (a binarised mask's plateaus, a cotangent's zeros).
    fn pseudo_random(rows: usize, cols: usize, seed: u64, lo: f64, hi: f64) -> Array2<f64> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        Array2::from_fn(rows, cols, |_, _| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            match x % 4 {
                0 => lo,
                1 => hi,
                _ => lo + (hi - lo) * u,
            }
        })
    }

    fn assert_bits_eq(a: &Array2<f64>, b: &Array2<f64>, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (idx, v) in a.indexed_iter() {
            assert_eq!(
                v.to_bits(),
                b[idx].to_bits(),
                "{what} at {idx:?}: {v} vs {}",
                b[idx]
            );
        }
    }

    /// Intensity and VJP of the pruned model equal the whole-array
    /// model's bit for bit at every corner (amplitudes up to the sign of
    /// an exact zero).
    fn assert_matches_reference(m: &LithoModel, mask: &Array2<f64>, v: &Array2<f64>, case: &str) {
        let (r0, c0) = m.origin();
        for corner in LithoCorner::ALL {
            let what = format!("{case} {corner:?}");
            let fwd = m.aerial_image(mask, corner);
            let (intensity, amplitudes) = reference_image(m, mask, corner);
            assert_bits_eq(&fwd.intensity, &intensity, &format!("{what} intensity"));
            for (a, full) in fwd.amplitudes.iter().zip(&amplitudes) {
                assert!(
                    *a == full.window(r0, c0, m.mask_rows, m.mask_cols),
                    "{what} amplitude"
                );
            }
            let grad = m.vjp(&fwd, v);
            let reference = reference_vjp(m, corner, &amplitudes, v);
            assert_bits_eq(&grad, &reference, &format!("{what} vjp"));
        }
    }

    #[test]
    fn pruned_transforms_match_whole_array_bit_for_bit() {
        // The bend's and the isolator's design windows, and an odd
        // non-square one.
        for (rows, cols) in [(28, 28), (36, 40), (23, 37)] {
            let m = LithoModel::new(rows, cols, 0.05, LithoConfig::default());
            for seed in 1..=3 {
                let mask = pseudo_random(rows, cols, seed, 0.0, 1.0);
                let v = pseudo_random(rows, cols, seed + 100, 0.0, 1.0).map(|x| x - 0.5);
                assert_matches_reference(&m, &mask, &v, &format!("{rows}x{cols} seed {seed}"));
            }
        }
    }

    #[test]
    fn pruned_zero_mask_matches_whole_array() {
        let m = LithoModel::new(28, 28, 0.05, LithoConfig::default());
        let v = pseudo_random(28, 28, 7, -1.0, 1.0);
        assert_matches_reference(&m, &Array2::zeros(28, 28), &v, "zero mask");
    }

    #[test]
    fn pruned_coherent_source_matches_whole_array() {
        let cfg = LithoConfig {
            sigma: 0.0,
            ..LithoConfig::default()
        };
        let m = LithoModel::new(28, 28, 0.05, cfg);
        let mask = pseudo_random(28, 28, 11, 0.0, 1.0);
        let v = pseudo_random(28, 28, 12, -1.0, 1.0);
        assert_matches_reference(&m, &mask, &v, "sigma 0");
    }

    #[test]
    fn pupil_covering_every_bin_matches_whole_array() {
        // Cutoff 51.8 cyc/µm: every bin of the 10 cyc/µm Nyquist square
        // stays inside every shifted pupil.
        let cfg = LithoConfig {
            na: 10.0,
            ..LithoConfig::default()
        };
        let m = LithoModel::new(23, 37, 0.05, cfg);
        for k in &m.kernels {
            assert_eq!(k.cols.len(), m.pad_cols);
            for (rows, cols) in &k.support {
                assert_eq!((rows.len(), cols.len()), (m.pad_rows, m.pad_cols));
            }
        }
        let mask = pseudo_random(23, 37, 21, 0.0, 1.0);
        let v = pseudo_random(23, 37, 22, -1.0, 1.0);
        assert_matches_reference(&m, &mask, &v, "whole-grid pupil");
    }

    #[test]
    fn bend_passband_is_a_fraction_of_the_padded_grid() {
        let m = model(28);
        assert_eq!((m.pad_rows, m.pad_cols), (64, 64));
        for k in &m.kernels {
            assert_eq!(k.cols.len(), 27);
            for (rows, cols) in &k.support {
                assert!((19..=20).contains(&rows.len()) && (19..=20).contains(&cols.len()));
            }
        }
    }

    #[test]
    fn image_linearity_in_intensity_is_quadratic_in_mask() {
        // Scaling the mask by t scales the intensity by t².
        let m = model(24);
        let mask = disc_mask(24, 6.0);
        let i1 = m.aerial_image(&mask, LithoCorner::Nominal).intensity;
        let half = mask.map(|v| 0.5 * v);
        let i2 = m.aerial_image(&half, LithoCorner::Nominal).intensity;
        for (idx, v) in i1.indexed_iter() {
            assert!((0.25 * v - i2[idx]).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "mask shape mismatch")]
    fn wrong_shape_panics() {
        let m = model(24);
        let _ = m.aerial_image(&Array2::zeros(23, 24), LithoCorner::Nominal);
    }
}
