//! The differentiable lithography forward model.
//!
//! [`LithoModel`] turns a binary/continuous mask into an aerial intensity
//! image for each process corner, and provides the exact vector–Jacobian
//! product so gradients can flow *through* the fabrication model back to
//! the design variables — the key enabler of the paper's
//! fabrication-restricted subspace optimisation (§III-C).

use crate::kernels::{source_points, transfer_function, LithoConfig, LithoCorner};
use boson_num::fft::{fft2, ifft2, next_pow2};
use boson_num::{Array2, Complex64};

/// A lithography imaging model for masks of a fixed shape.
///
/// Kernels for all three corners are precomputed at construction; each
/// [`LithoModel::aerial_image`] call costs `2·S` FFTs (S = source points).
#[derive(Debug, Clone)]
pub struct LithoModel {
    mask_rows: usize,
    mask_cols: usize,
    pad_rows: usize,
    pad_cols: usize,
    config: LithoConfig,
    /// `kernels[corner][source]` in FFT layout, plus the corner dose.
    kernels: Vec<(f64, Vec<Array2<Complex64>>)>,
}

/// The result of one forward imaging pass, retaining the per-source
/// amplitudes needed by the backward pass.
#[derive(Debug, Clone)]
pub struct AerialImage {
    /// Intensity on the mask grid (same shape as the input mask).
    pub intensity: Array2<f64>,
    corner_index: usize,
    /// Padded per-source complex amplitudes.
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
                let hs: Vec<Array2<Complex64>> = pts
                    .iter()
                    .map(|s| transfer_function(pad_rows, pad_cols, dx, &config, s, z))
                    .collect();
                (dose, hs)
            })
            .collect();
        Self {
            mask_rows: rows,
            mask_cols: cols,
            pad_rows,
            pad_cols,
            config,
            kernels,
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

    /// Computes the aerial intensity image of `mask` at `corner`.
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
        let (dose, hs) = &self.kernels[ci];
        // Embed the mask centred in the padded grid.
        let r0 = (self.pad_rows - self.mask_rows) / 2;
        let c0 = (self.pad_cols - self.mask_cols) / 2;
        let mut m = Array2::<Complex64>::zeros(self.pad_rows, self.pad_cols);
        for r in 0..self.mask_rows {
            for c in 0..self.mask_cols {
                m[(r0 + r, c0 + c)] = Complex64::from_real(mask[(r, c)]);
            }
        }
        fft2(&mut m);

        let mut intensity_padded = Array2::<f64>::zeros(self.pad_rows, self.pad_cols);
        let mut amplitudes = Vec::with_capacity(hs.len());
        let weight = 1.0 / hs.len() as f64;
        for h in hs {
            let mut b = m.zip_map(h, |a, b| *a * *b);
            ifft2(&mut b);
            for (idx, v) in b.indexed_iter() {
                intensity_padded[idx] += dose * weight * v.norm_sqr();
            }
            amplitudes.push(b);
        }
        let intensity = intensity_padded.window(r0, c0, self.mask_rows, self.mask_cols);
        AerialImage {
            intensity,
            corner_index: ci,
            amplitudes,
        }
    }

    /// Vector–Jacobian product: given `v = ∂L/∂I` on the mask grid,
    /// returns `∂L/∂mask`.
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
        let (dose, hs) = &self.kernels[fwd.corner_index];
        let weight = 1.0 / hs.len() as f64;
        let r0 = (self.pad_rows - self.mask_rows) / 2;
        let c0 = (self.pad_cols - self.mask_cols) / 2;
        // Pad the cotangent.
        let mut grad_padded = Array2::<f64>::zeros(self.pad_rows, self.pad_cols);
        for (h, a) in hs.iter().zip(&fwd.amplitudes) {
            // u = (dose·w·v) ⊙ conj(a) on the padded grid.
            let mut u = Array2::<Complex64>::zeros(self.pad_rows, self.pad_cols);
            for r in 0..self.mask_rows {
                for c in 0..self.mask_cols {
                    let vv = v[(r, c)] * dose * weight;
                    if vv != 0.0 {
                        u[(r0 + r, c0 + c)] = a[(r0 + r, c0 + c)].conj() * vv;
                    }
                }
            }
            // grad += 2·Re(FFT(H ⊙ IFFT(u))).
            ifft2(&mut u);
            let mut w = u.zip_map(h, |x, y| *x * *y);
            fft2(&mut w);
            for (idx, val) in w.indexed_iter() {
                grad_padded[idx] += 2.0 * val.re;
            }
        }
        grad_padded.window(r0, c0, self.mask_rows, self.mask_cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
