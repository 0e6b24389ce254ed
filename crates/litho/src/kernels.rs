//! Frequency-domain imaging kernels for the partially-coherent model.
//!
//! The Hopkins partially-coherent imaging integral is evaluated by Abbe's
//! source-point method: the extended illumination source is quadratured
//! into a small set of plane-wave directions; for each direction `s` the
//! coherent transfer function is the shifted, defocused pupil
//! `H_s(f) = P(f + f_s)·exp(iπλz|f + f_s|²)`, and the aerial image is the
//! incoherent sum `I = Σ_s w_s·|IFFT[M(f)·H_s(f)]|²`.
//!
//! The circular pupil `P` cuts off at `NA/λ`, which is what wipes
//! sub-diffraction features from the mask and confines fabricable
//! patterns to a low-dimensional subspace (paper §III-B1).

use boson_num::fft::freq_coord;
use boson_num::{Array2, Complex64};
use serde::{Deserialize, Serialize};

/// Optical configuration of the lithography projector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LithoConfig {
    /// Illumination wavelength in µm (DUV ≈ 0.193).
    pub lambda: f64,
    /// Numerical aperture of the projection lens.
    pub na: f64,
    /// Partial-coherence factor σ (source radius / pupil radius).
    pub sigma: f64,
    /// Defocus distance (µm) used by the min/max corners.
    pub defocus: f64,
    /// Dose excursion used by the corners (min = 1−dose_delta, …).
    pub dose_delta: f64,
}

impl Default for LithoConfig {
    fn default() -> Self {
        Self {
            lambda: 0.193,
            na: 0.6,
            sigma: 0.5,
            defocus: 0.15,
            dose_delta: 0.1,
        }
    }
}

impl LithoConfig {
    /// Pupil cutoff frequency `NA/λ` in cycles/µm.
    pub fn cutoff(&self) -> f64 {
        self.na / self.lambda
    }
}

/// Lithography process corner selector (paper's `L ∈ {l_min, l_norm, l_max}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LithoCorner {
    /// Defocused, under-dosed — erodes the pattern.
    Min,
    /// In focus, nominal dose.
    Nominal,
    /// Defocused, over-dosed — dilates the pattern.
    Max,
}

impl LithoCorner {
    /// All three corners in canonical order.
    pub const ALL: [LithoCorner; 3] = [LithoCorner::Min, LithoCorner::Nominal, LithoCorner::Max];

    /// `(defocus multiplier, dose multiplier)` for this corner.
    pub fn settings(self, cfg: &LithoConfig) -> (f64, f64) {
        match self {
            LithoCorner::Min => (cfg.defocus, 1.0 - cfg.dose_delta),
            LithoCorner::Nominal => (0.0, 1.0),
            LithoCorner::Max => (cfg.defocus, 1.0 + cfg.dose_delta),
        }
    }
}

/// One Abbe source point: a transverse frequency offset and its quadrature
/// weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourcePoint {
    /// Offset in cycles/µm along x.
    pub fx: f64,
    /// Offset in cycles/µm along y.
    pub fy: f64,
    /// Quadrature weight (weights sum to 1).
    pub weight: f64,
}

/// Standard 5-point source quadrature: centre + 4 axial points at radius
/// `σ·NA/λ·r_frac`.
pub fn source_points(cfg: &LithoConfig) -> Vec<SourcePoint> {
    let r = cfg.sigma * cfg.cutoff() * std::f64::consts::FRAC_1_SQRT_2;
    let w = 1.0 / 5.0;
    vec![
        SourcePoint {
            fx: 0.0,
            fy: 0.0,
            weight: w,
        },
        SourcePoint {
            fx: r,
            fy: 0.0,
            weight: w,
        },
        SourcePoint {
            fx: -r,
            fy: 0.0,
            weight: w,
        },
        SourcePoint {
            fx: 0.0,
            fy: r,
            weight: w,
        },
        SourcePoint {
            fx: 0.0,
            fy: -r,
            weight: w,
        },
    ]
}

/// Builds the frequency-domain transfer function `H_s(f)` on a padded
/// `rows × cols` FFT grid with sample pitch `dx`, for source point `s` and
/// defocus `z`.
pub fn transfer_function(
    rows: usize,
    cols: usize,
    dx: f64,
    cfg: &LithoConfig,
    s: &SourcePoint,
    defocus: f64,
) -> Array2<Complex64> {
    let cutoff = cfg.cutoff();
    Array2::from_fn(rows, cols, |r, c| {
        let fy = freq_coord(r, rows, dx) + s.fy;
        let fx = freq_coord(c, cols, dx) + s.fx;
        let f2 = fx * fx + fy * fy;
        if f2.sqrt() <= cutoff {
            // Paraxial defocus aberration phase.
            let phase = std::f64::consts::PI * cfg.lambda * defocus * f2;
            Complex64::cis(phase)
        } else {
            Complex64::ZERO
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_settings() {
        let cfg = LithoConfig::default();
        let (z0, d0) = LithoCorner::Nominal.settings(&cfg);
        assert_eq!((z0, d0), (0.0, 1.0));
        let (zm, dm) = LithoCorner::Min.settings(&cfg);
        assert!(zm > 0.0 && dm < 1.0);
        let (_, dx) = LithoCorner::Max.settings(&cfg);
        assert!(dx > 1.0);
    }

    #[test]
    fn source_points_sum_to_one() {
        let pts = source_points(&LithoConfig::default());
        let total: f64 = pts.iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(pts.len(), 5);
        // All points inside the pupil (σ < 1).
        let cfg = LithoConfig::default();
        for p in &pts {
            assert!((p.fx * p.fx + p.fy * p.fy).sqrt() < cfg.cutoff());
        }
    }

    #[test]
    fn transfer_function_is_lowpass() {
        let cfg = LithoConfig::default();
        let s = SourcePoint {
            fx: 0.0,
            fy: 0.0,
            weight: 1.0,
        };
        let h = transfer_function(64, 64, 0.05, &cfg, &s, 0.0);
        // DC passes.
        assert_eq!(h[(0, 0)], Complex64::ONE);
        // Nyquist frequency at 0.05 µm pitch is 10 cyc/µm > cutoff 3.1:
        // high-frequency corner must be blocked.
        assert_eq!(h[(32, 32)], Complex64::ZERO);
        // In focus the passband is purely real 1.
        let passing = h.as_slice().iter().filter(|v| v.abs() > 0.0).count();
        assert!(passing > 0);
        for v in h.as_slice() {
            if v.abs() > 0.0 {
                assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn defocus_adds_phase() {
        let cfg = LithoConfig::default();
        let s = SourcePoint {
            fx: 0.0,
            fy: 0.0,
            weight: 1.0,
        };
        let h = transfer_function(64, 64, 0.05, &cfg, &s, 0.2);
        // Away from DC there must be nontrivial phase.
        let v = h[(0, 5)];
        assert!(v.abs() > 0.0);
        assert!(v.im.abs() > 1e-6, "defocus phase missing: {v:?}");
        // DC keeps zero phase.
        assert_eq!(h[(0, 0)], Complex64::ONE);
    }

    #[test]
    fn shifted_pupil_asymmetric() {
        let cfg = LithoConfig::default();
        let s = SourcePoint {
            fx: 1.5,
            fy: 0.0,
            weight: 1.0,
        };
        let h = transfer_function(64, 64, 0.05, &cfg, &s, 0.0);
        // The passband is shifted: count of passing bins on the +fx side
        // differs from the -fx side.
        let mut plus = 0;
        let mut minus = 0;
        for c in 1..32 {
            if h[(0, c)].abs() > 0.0 {
                plus += 1;
            }
            if h[(0, 64 - c)].abs() > 0.0 {
                minus += 1;
            }
        }
        assert_ne!(plus, minus, "shifted pupil should be asymmetric");
    }
}
