//! The compound differentiable fabrication chain `T_t ∘ E_η ∘ L_l ∘ P`.
//!
//! This module wires the paper's Eq. (1) together: a design-region density
//! ("mask") goes through lithography, threshold etching and temperature
//! scaling to produce the permittivity map the FDFD solver sees. Every
//! stage exposes a vector–Jacobian product, so the adjoint field gradient
//! `∂F/∂ε` flows all the way back to the mask (and, for the worst-case
//! corner search, to the variation parameters `t` and `ξ`).

use boson_fab::{hard_threshold, TemperatureModel};
use boson_fab::{EoleField, EtchProjection, VariationCorner};
use boson_litho::model::AerialImage;
use boson_litho::LithoModel;
use boson_num::Array2;

/// Relative permittivity of the void (air cladding).
pub const EPS_VOID: f64 = 1.0;

/// The fabrication model stack over a fixed design region.
#[derive(Debug, Clone)]
pub struct FabChain {
    litho: LithoModel,
    etch: EtchProjection,
    eole: EoleField,
}

/// Saved intermediates of one forward pass (required by the backward
/// pass).
#[derive(Debug, Clone)]
pub struct FabForward {
    /// The input mask (copy).
    pub mask: Array2<f64>,
    /// Aerial image with per-source amplitudes.
    pub aerial: AerialImage,
    /// Realised threshold field.
    pub eta: Array2<f64>,
    /// Post-etch density in the design region.
    pub rho_fab: Array2<f64>,
    /// Whether the hard threshold was used (no gradients available).
    pub hard: bool,
}

impl FabChain {
    /// Builds the chain for a `rows × cols` design region at pitch `dx`.
    pub fn new(litho: LithoModel, etch: EtchProjection, eole: EoleField) -> Self {
        Self { litho, etch, eole }
    }

    /// The lithography model.
    pub fn litho(&self) -> &LithoModel {
        &self.litho
    }

    /// The etch projection (smoothed).
    pub fn etch(&self) -> &EtchProjection {
        &self.etch
    }

    /// The EOLE threshold field.
    pub fn eole(&self) -> &EoleField {
        &self.eole
    }

    /// Runs the fabrication model on `mask` under `corner`.
    ///
    /// With `hard = true` the exact binary threshold is used (for honest
    /// post-fab evaluation); gradients are then unavailable.
    ///
    /// # Panics
    ///
    /// Panics if the mask shape disagrees with the models.
    pub fn forward(&self, mask: &Array2<f64>, corner: &VariationCorner, hard: bool) -> FabForward {
        self.forward_with_etch(mask, corner, hard, self.etch)
    }

    /// Like [`FabChain::forward`] but with an explicit etch projection,
    /// so the β sharpening schedule can vary per iteration without
    /// mutating the (thread-shared) chain. The matching backward passes
    /// are [`FabChain::vjp_mask_with_etch`] / [`FabChain::vjp_xi_with_etch`]
    /// — always pair them with the etch used forward.
    ///
    /// # Panics
    ///
    /// Panics if the mask shape disagrees with the models.
    pub fn forward_with_etch(
        &self,
        mask: &Array2<f64>,
        corner: &VariationCorner,
        hard: bool,
        etch: EtchProjection,
    ) -> FabForward {
        let aerial = self.litho.aerial_image(mask, corner.litho);
        let xi = if corner.xi.is_empty() {
            vec![0.0; self.eole.terms()]
        } else {
            assert_eq!(corner.xi.len(), self.eole.terms(), "xi length mismatch");
            corner.xi.clone()
        };
        let eta = self.eole.realise(&xi, corner.eta_shift);
        let rho_fab = if hard {
            hard_threshold(&aerial.intensity, &eta)
        } else {
            etch.project_image(&aerial.intensity, &eta)
        };
        FabForward {
            mask: mask.clone(),
            aerial,
            eta,
            rho_fab,
            hard,
        }
    }

    /// Back-propagates `v = ∂L/∂ρ_fab` to the mask: `∂L/∂mask`.
    ///
    /// # Panics
    ///
    /// Panics if the forward pass was run with `hard = true`.
    pub fn vjp_mask(&self, fwd: &FabForward, v: &Array2<f64>) -> Array2<f64> {
        self.vjp_mask_with_etch(fwd, v, self.etch)
    }

    /// Backward pass matching [`FabChain::forward_with_etch`].
    ///
    /// # Panics
    ///
    /// Panics if the forward pass was run with `hard = true`.
    pub fn vjp_mask_with_etch(
        &self,
        fwd: &FabForward,
        v: &Array2<f64>,
        etch: EtchProjection,
    ) -> Array2<f64> {
        assert!(!fwd.hard, "no gradients through the hard threshold");
        let v_intensity = etch.vjp_intensity(&fwd.aerial.intensity, &fwd.eta, v);
        self.litho.vjp(&fwd.aerial, &v_intensity)
    }

    /// Back-propagates `v = ∂L/∂ρ_fab` to the EOLE weights, `∂L/∂ξ`
    /// (used by the worst-case corner search), through the forward pass
    /// of [`FabChain::forward_with_etch`].
    ///
    /// # Panics
    ///
    /// Panics if the forward pass was run with `hard = true`.
    pub fn vjp_xi_with_etch(
        &self,
        fwd: &FabForward,
        v: &Array2<f64>,
        etch: EtchProjection,
    ) -> Vec<f64> {
        assert!(!fwd.hard, "no gradients through the hard threshold");
        let v_eta = etch.vjp_eta(&fwd.aerial.intensity, &fwd.eta, v);
        self.eole.grad_xi(&v_eta)
    }
}

/// Assembles the full simulation permittivity: the temperature-scaled
/// background with the design-region density pasted in.
///
/// `background_solid` marks cells that are silicon outside the design
/// region (waveguides); inside the design region the density `rho`
/// interpolates between void and silicon:
/// `ε = ε_v + (ε_Si(t) − ε_v)·ρ`.
///
/// # Panics
///
/// Panics if the design region does not fit inside the background.
pub fn assemble_eps(
    background_solid: &Array2<f64>,
    design_origin: (usize, usize),
    rho: &Array2<f64>,
    temperature: f64,
) -> Array2<f64> {
    let eps_si = TemperatureModel::eps_si(temperature);
    let (by, bx) = background_solid.shape();
    let (dr, dc) = rho.shape();
    let (oy, ox) = design_origin;
    assert!(
        oy + dr <= by && ox + dc <= bx,
        "design region out of bounds"
    );
    let mut eps = background_solid.map(|&s| EPS_VOID + (eps_si - EPS_VOID) * s);
    for r in 0..dr {
        for c in 0..dc {
            eps[(oy + r, ox + c)] = EPS_VOID + (eps_si - EPS_VOID) * rho[(r, c)];
        }
    }
    eps
}

/// Extracts `∂L/∂ρ` over the design region from a full-grid `∂L/∂ε`:
/// the chain factor is `∂ε/∂ρ = ε_Si(t) − ε_v`.
pub fn grad_eps_to_rho(
    grad_eps: &Array2<f64>,
    design_origin: (usize, usize),
    design_shape: (usize, usize),
    temperature: f64,
) -> Array2<f64> {
    let scale = TemperatureModel::eps_si(temperature) - EPS_VOID;
    let (oy, ox) = design_origin;
    Array2::from_fn(design_shape.0, design_shape.1, |r, c| {
        grad_eps[(oy + r, ox + c)] * scale
    })
}

/// Total derivative `dL/dt` through the permittivity's temperature
/// dependence: solid background cells carry weight 1, design cells carry
/// their density.
pub fn grad_temperature(
    grad_eps: &Array2<f64>,
    background_solid: &Array2<f64>,
    design_origin: (usize, usize),
    rho: &Array2<f64>,
    temperature: f64,
) -> f64 {
    let de_dt = TemperatureModel::d_eps_si_dt(temperature);
    let (oy, ox) = design_origin;
    let (dr, dc) = rho.shape();
    let mut total = 0.0;
    for ((r, c), g) in grad_eps.indexed_iter() {
        let in_design = r >= oy && r < oy + dr && c >= ox && c < ox + dc;
        let solid_frac = if in_design {
            rho[(r - oy, c - ox)]
        } else {
            background_solid[(r, c)]
        };
        total += g * solid_frac * de_dt;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use boson_fab::{EoleParams, VariationSpace};
    use boson_litho::{LithoConfig, LithoCorner};

    fn chain(n: usize) -> FabChain {
        FabChain::new(
            LithoModel::new(n, n, 0.05, LithoConfig::default()),
            EtchProjection::new(15.0),
            EoleField::new(n, n, 0.05, EoleParams::default()),
        )
    }

    fn strip_mask(n: usize) -> Array2<f64> {
        Array2::from_fn(n, n, |r, _| if r.abs_diff(n / 2) <= 4 { 1.0 } else { 0.0 })
    }

    #[test]
    fn forward_produces_bounded_density() {
        let ch = chain(24);
        let out = ch.forward(&strip_mask(24), &VariationCorner::nominal(), false);
        // Gibbs ringing in the aerial image can push the smoothed
        // projection a few percent past [0,1]; the hard threshold used for
        // evaluation is exactly binary.
        for v in out.rho_fab.as_slice() {
            assert!(*v >= -0.1 && *v <= 1.1, "density {v} far outside range");
        }
        // The strip survives fabrication: centre is solid, edge void.
        assert!(
            out.rho_fab[(12, 12)] > 0.7,
            "centre: {}",
            out.rho_fab[(12, 12)]
        );
        assert!(out.rho_fab[(2, 12)] < 0.2, "edge: {}", out.rho_fab[(2, 12)]);
    }

    #[test]
    fn hard_forward_is_binary() {
        let ch = chain(24);
        let out = ch.forward(&strip_mask(24), &VariationCorner::nominal(), true);
        for v in out.rho_fab.as_slice() {
            assert!(*v == 0.0 || *v == 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "hard threshold")]
    fn hard_forward_rejects_vjp() {
        let ch = chain(16);
        let out = ch.forward(&strip_mask(16), &VariationCorner::nominal(), true);
        let _ = ch.vjp_mask(&out, &Array2::zeros(16, 16));
    }

    #[test]
    fn litho_corners_erode_and_dilate() {
        let ch = chain(32);
        let mask = strip_mask(32);
        let nom = ch.forward(&mask, &VariationCorner::nominal(), false);
        let min_corner = VariationCorner {
            litho: LithoCorner::Min,
            ..VariationCorner::nominal()
        };
        let max_corner = VariationCorner {
            litho: LithoCorner::Max,
            ..VariationCorner::nominal()
        };
        // Soft projection: the developed area responds continuously to
        // dose (hard thresholds only move in whole-pixel steps).
        let emin = ch.forward(&mask, &min_corner, false);
        let emax = ch.forward(&mask, &max_corner, false);
        let area = |a: &Array2<f64>| a.sum();
        assert!(
            area(&emin.rho_fab) < area(&nom.rho_fab),
            "under-dose must erode: {} !< {}",
            area(&emin.rho_fab),
            area(&nom.rho_fab)
        );
        assert!(
            area(&emax.rho_fab) > area(&nom.rho_fab),
            "over-dose must dilate: {} !> {}",
            area(&emax.rho_fab),
            area(&nom.rho_fab)
        );
    }

    #[test]
    fn full_chain_vjp_matches_finite_difference() {
        let n = 20;
        let ch = chain(n);
        let mask = strip_mask(n).map(|&v| 0.2 + 0.6 * v); // interior values
        let corner = VariationCorner::nominal();
        let w = Array2::from_fn(n, n, |r, c| ((r * 3 + c * 5) % 7) as f64 * 0.1 - 0.3);
        let loss = |m: &Array2<f64>| -> f64 {
            ch.forward(m, &corner, false)
                .rho_fab
                .zip_map(&w, |a, b| a * b)
                .sum()
        };
        let fwd = ch.forward(&mask, &corner, false);
        let grad = ch.vjp_mask(&fwd, &w);
        let h = 1e-6;
        for &(r, c) in &[(10usize, 10usize), (8, 12), (12, 5)] {
            let mut mp = mask.clone();
            mp[(r, c)] += h;
            let lp = loss(&mp);
            mp[(r, c)] -= 2.0 * h;
            let lm = loss(&mp);
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - grad[(r, c)]).abs() < 1e-6 + 1e-4 * fd.abs(),
                "chain vjp at ({r},{c}): fd={fd} ad={}",
                grad[(r, c)]
            );
        }
    }

    #[test]
    fn xi_vjp_matches_finite_difference() {
        let n = 20;
        let ch = chain(n);
        let mask = strip_mask(n);
        let space = VariationSpace::default();
        let mut corner = VariationCorner::nominal();
        corner.xi = vec![0.1; ch.eole().terms()];
        let _ = &space;
        let w = Array2::from_fn(n, n, |r, c| ((r + c) % 3) as f64 * 0.2 - 0.2);
        let fwd = ch.forward(&mask, &corner, false);
        let gxi = ch.vjp_xi_with_etch(&fwd, &w, *ch.etch());
        let h = 1e-6;
        let loss = |xi: &[f64]| -> f64 {
            let mut c2 = corner.clone();
            c2.xi = xi.to_vec();
            ch.forward(&mask, &c2, false)
                .rho_fab
                .zip_map(&w, |a, b| a * b)
                .sum()
        };
        for k in [0usize, ch.eole().terms() - 1] {
            let mut xp = corner.xi.clone();
            xp[k] += h;
            let lp = loss(&xp);
            xp[k] -= 2.0 * h;
            let lm = loss(&xp);
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - gxi[k]).abs() < 1e-6 + 1e-4 * fd.abs(),
                "xi vjp at {k}: fd={fd} ad={}",
                gxi[k]
            );
        }
    }

    #[test]
    fn assemble_eps_mixes_materials() {
        let bg = Array2::from_fn(10, 10, |r, _| if r == 5 { 1.0 } else { 0.0 });
        let rho = Array2::filled(4, 4, 0.5);
        let eps = assemble_eps(&bg, (3, 3), &rho, 300.0);
        let esi = TemperatureModel::eps_si(300.0);
        assert!((eps[(5, 0)] - esi).abs() < 1e-12, "waveguide cell");
        assert!((eps[(0, 0)] - 1.0).abs() < 1e-12, "void cell");
        assert!(
            (eps[(4, 4)] - (1.0 + 0.5 * (esi - 1.0))).abs() < 1e-12,
            "design cell"
        );
    }

    #[test]
    fn temperature_gradient_matches_finite_difference() {
        let bg = Array2::from_fn(12, 12, |r, _| if (5..7).contains(&r) { 1.0 } else { 0.0 });
        let rho = Array2::from_fn(4, 4, |r, c| ((r + c) % 2) as f64);
        let g = Array2::from_fn(12, 12, |r, c| ((r * 2 + c) % 5) as f64 * 0.1 - 0.2);
        let t = 320.0;
        let analytic = grad_temperature(&g, &bg, (4, 4), &rho, t);
        let h = 1e-3;
        let loss = |tt: f64| -> f64 {
            assemble_eps(&bg, (4, 4), &rho, tt)
                .zip_map(&g, |a, b| a * b)
                .sum()
        };
        let fd = (loss(t + h) - loss(t - h)) / (2.0 * h);
        assert!(
            (fd - analytic).abs() < 1e-8 * (1.0 + fd.abs()),
            "fd={fd} ad={analytic}"
        );
    }
}
