//! Variation-corner algebra and the adaptive sampling strategies.
//!
//! The variation space has three fabrication/operation axes (paper
//! §III-E): lithography corner `L`, operating temperature `T`, and global
//! etch threshold `η`, plus the high-dimensional EOLE field weights `ξ`
//! for spatial etch variation — and, since the spectral extension, the
//! operating wavelength as a fourth axis ([`SpectralAxis`]: `K`
//! wavelengths around λ_c, `K = 1` degenerating to the original
//! single-wavelength behaviour bit-identically). Exhaustive corner
//! sweeping costs `3^N` simulations per iteration; the paper's *axial*
//! sampling visits only the `2N` single-axis excursions plus the nominal
//! point (linear cost), and appends one *worst-case* corner found by a
//! single gradient-ascent step on `(T, ξ)`.
//!
//! All strategies from Fig. 6(a) are implemented so the comparison can be
//! regenerated. [`VariationSpace::spectral_corners`] forms the
//! (fabrication corner × wavelength) cross product that the broadband
//! robust loop sweeps.

use crate::eole::EoleParams;
use crate::spectral::SpectralAxis;
use crate::temperature::{TemperatureModel, T_NOMINAL};
use boson_litho::LithoCorner;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One fully-specified fabrication/operation condition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationCorner {
    /// Lithography corner.
    pub litho: LithoCorner,
    /// Operating temperature (K).
    pub temperature: f64,
    /// Global etch-threshold shift added to the EOLE mean.
    pub eta_shift: f64,
    /// EOLE spatial-field weights (empty = flat field).
    pub xi: Vec<f64>,
    /// Index of this corner's operating wavelength in the spectral axis
    /// (see [`SpectralAxis`]); `0` for the single-wavelength space.
    pub omega_idx: usize,
    /// Weight of this corner in the robust objective.
    pub weight: f64,
    /// Human-readable label for traces and reports.
    pub label: String,
}

impl VariationCorner {
    /// The nominal (no-variation) corner at the first (and for the
    /// single-wavelength space, only) spectral sample.
    pub fn nominal() -> Self {
        Self {
            litho: LithoCorner::Nominal,
            temperature: T_NOMINAL,
            eta_shift: 0.0,
            xi: Vec::new(),
            omega_idx: 0,
            weight: 1.0,
            label: "nominal".to_owned(),
        }
    }

    /// `true` if this corner deviates from nominal in any *fabrication*
    /// axis (the spectral index is judged separately because the nominal
    /// wavelength index depends on the axis — see
    /// [`SpectralAxis::nominal_index`]).
    pub fn is_varied(&self) -> bool {
        self.litho != LithoCorner::Nominal
            || self.temperature != T_NOMINAL
            || self.eta_shift != 0.0
            || self.xi.iter().any(|&x| x != 0.0)
    }

    /// This corner re-targeted to spectral sample `omega_idx` at
    /// wavelength `lambda` (µm); the label gains a `@λ=…` suffix so
    /// per-corner solver policies key on the exact `(corner, ω)` pair.
    pub fn at_omega(&self, omega_idx: usize, lambda: f64) -> Self {
        Self {
            omega_idx,
            label: format!("{}@λ={lambda:.4}", self.label),
            ..self.clone()
        }
    }
}

/// Corner-sampling strategy (Fig. 6(a) of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplingStrategy {
    /// Nominal corner only — no variation awareness.
    NominalOnly,
    /// Exhaustive 3×3×3 sweep — `O(3^N)`, the paper's scalability strawman.
    CornerSweep,
    /// Nominal + one-sided excursion per axis — `O(N)`, asymmetric.
    AxialSingleSided,
    /// Nominal + both excursions per axis — `O(2N)`, the paper's axial set.
    AxialDoubleSided,
    /// Axial set + `count` random corners (cost-matched control).
    AxialPlusRandom {
        /// Number of random corners to append.
        count: usize,
    },
    /// Axial set + one worst-case corner from a gradient-ascent step —
    /// the full BOSON-1 strategy.
    AxialPlusWorst,
}

impl SamplingStrategy {
    /// Whether the optimiser must compute and append a worst-case corner.
    pub fn needs_worst_case(self) -> bool {
        matches!(self, SamplingStrategy::AxialPlusWorst)
    }

    /// Deterministic corner count (excluding any appended worst-case
    /// corner and random draws).
    pub fn base_corner_count(self) -> usize {
        match self {
            SamplingStrategy::NominalOnly => 1,
            SamplingStrategy::CornerSweep => 27,
            SamplingStrategy::AxialSingleSided => 4,
            SamplingStrategy::AxialDoubleSided
            | SamplingStrategy::AxialPlusRandom { .. }
            | SamplingStrategy::AxialPlusWorst => 7,
        }
    }

    /// Number of corners actually drawn per iteration: the base set plus
    /// any random extras. (The worst-case corner of `AxialPlusWorst` is
    /// derived *after* this batch and is not included.) This is the right
    /// bound for sizing a parallel corner-evaluation pool.
    pub fn corners_per_iteration(self) -> usize {
        match self {
            SamplingStrategy::AxialPlusRandom { count } => self.base_corner_count() + count,
            other => other.base_corner_count(),
        }
    }
}

/// The variation space: axis excursions, the spatial-field model, and the
/// spectral (operating-wavelength) axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationSpace {
    /// Temperature model (excursion ±Δ).
    pub temperature: TemperatureModel,
    /// Global threshold excursion ±Δη for the η axis.
    pub eta_delta: f64,
    /// EOLE parameters for spatially-varying etching.
    pub eole: EoleParams,
    /// Spectral axis: `K` wavelengths around λ_c (default: the single
    /// centre wavelength, which reproduces the unextended pipeline
    /// bit-identically).
    pub spectral: SpectralAxis,
}

impl Default for VariationSpace {
    fn default() -> Self {
        Self {
            temperature: TemperatureModel::default(),
            eta_delta: 0.05,
            eole: EoleParams::default(),
            spectral: SpectralAxis::single(),
        }
    }
}

impl VariationSpace {
    /// Generates the deterministic corner set for `strategy`.
    ///
    /// Random corners (for [`SamplingStrategy::AxialPlusRandom`]) are drawn
    /// from `rng`; the worst-case corner of
    /// [`SamplingStrategy::AxialPlusWorst`] is *not* included — the
    /// optimiser computes it from gradients and appends it.
    pub fn corners<R: Rng>(&self, strategy: SamplingStrategy, rng: &mut R) -> Vec<VariationCorner> {
        let (t_lo, t_hi) = self.temperature.range();
        let mut out: Vec<VariationCorner> = Vec::new();
        let nominal = VariationCorner::nominal();
        match strategy {
            SamplingStrategy::NominalOnly => out.push(nominal),
            SamplingStrategy::CornerSweep => {
                for litho in LithoCorner::ALL {
                    for &t in &self.temperature.corners() {
                        for &de in &[-self.eta_delta, 0.0, self.eta_delta] {
                            out.push(VariationCorner {
                                litho,
                                temperature: t,
                                eta_shift: de,
                                label: format!("sweep:{litho:?}/T={t}/dη={de:+.2}"),
                                ..VariationCorner::nominal()
                            });
                        }
                    }
                }
            }
            SamplingStrategy::AxialSingleSided => {
                out.push(nominal);
                out.push(self.litho_corner(LithoCorner::Max));
                out.push(self.temp_corner(t_hi));
                out.push(self.eta_corner(self.eta_delta));
            }
            SamplingStrategy::AxialDoubleSided
            | SamplingStrategy::AxialPlusRandom { .. }
            | SamplingStrategy::AxialPlusWorst => {
                out.push(nominal);
                out.push(self.litho_corner(LithoCorner::Min));
                out.push(self.litho_corner(LithoCorner::Max));
                out.push(self.temp_corner(t_lo));
                out.push(self.temp_corner(t_hi));
                out.push(self.eta_corner(-self.eta_delta));
                out.push(self.eta_corner(self.eta_delta));
                if let SamplingStrategy::AxialPlusRandom { count } = strategy {
                    for k in 0..count {
                        let mut c = self.sample_random(rng);
                        c.label = format!("random-{k}");
                        out.push(c);
                    }
                }
            }
        }
        let w = 1.0 / out.len() as f64;
        for c in &mut out {
            c.weight = w;
        }
        out
    }

    /// The (fabrication corner × wavelength) cross product for
    /// `strategy`: every corner of [`VariationSpace::corners`] replicated
    /// at each of the spectral axis' `K` wavelengths, ω-major (all
    /// fabrication corners at ω₀, then all at ω₁, …) so each wavelength's
    /// group is contiguous in the fused batched solver sweep. Weights
    /// are renormalised across the whole product.
    ///
    /// With the default single-wavelength axis this returns exactly
    /// [`VariationSpace::corners`] — same labels, same weights, same
    /// `omega_idx = 0` — so `K = 1` runs are bit-identical to the
    /// unextended pipeline.
    ///
    /// `lambda_c` is the centre wavelength (µm) used only to render the
    /// `@λ=…` label suffixes of the `K > 1` product.
    pub fn spectral_corners<R: Rng>(
        &self,
        strategy: SamplingStrategy,
        lambda_c: f64,
        rng: &mut R,
    ) -> Vec<VariationCorner> {
        let fab = self.corners(strategy, rng);
        if self.spectral.is_single() {
            return fab;
        }
        let lambdas = self.spectral.lambdas(lambda_c);
        let w = 1.0 / (fab.len() * lambdas.len()) as f64;
        let mut out = Vec::with_capacity(fab.len() * lambdas.len());
        for (oi, &lambda) in lambdas.iter().enumerate() {
            for c in &fab {
                let mut sc = c.at_omega(oi, lambda);
                sc.weight = w;
                out.push(sc);
            }
        }
        out
    }

    /// Number of columns in the ω-major (fabrication corner × wavelength)
    /// cross product that [`VariationSpace::spectral_corners`] forms for
    /// `strategy` — the size of the per-(corner, ω) state an adaptive
    /// subspace scheduler has to track. Random corners occupy stable
    /// column slots (their *content* is redrawn per iteration, their
    /// position is not), so slot-keyed statistics stay well defined.
    pub fn product_columns(&self, strategy: SamplingStrategy) -> usize {
        strategy.corners_per_iteration() * self.spectral.count
    }

    /// Selects the active subset of the cross product for one robust
    /// iteration: the `forced` columns (the fabrication-nominal corner at
    /// every wavelength — they refresh the per-ω preconditioner factors
    /// and warm starts, so a schedule without them is never valid) plus
    /// the highest-`scores` remaining columns until `m` columns are
    /// active in total.
    ///
    /// Deterministic by construction: ties in the score keep the lowest
    /// column index, so the same scores always produce the same active
    /// set whatever produced them. `m` is effectively clamped to
    /// `[forced count, len]` — every forced column is active even when
    /// `m` is smaller, and `m ≥ len` activates everything (the full
    /// sweep). NaN scores rank below every finite score.
    ///
    /// # Panics
    ///
    /// Panics if `scores` and `forced` disagree in length.
    pub fn select_top_columns(scores: &[f64], forced: &[bool], m: usize) -> Vec<bool> {
        assert_eq!(
            scores.len(),
            forced.len(),
            "score/forced column count mismatch"
        );
        let mut active = forced.to_vec();
        let mut budget = m.saturating_sub(forced.iter().filter(|&&f| f).count());
        let mut ranked: Vec<usize> = (0..scores.len()).filter(|&ci| !forced[ci]).collect();
        ranked.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                // NaN never outranks a comparable score; among
                // themselves NaNs fall back to the index tie-break.
                .unwrap_or_else(|| scores[a].is_nan().cmp(&scores[b].is_nan()))
                .then(a.cmp(&b))
        });
        for ci in ranked {
            if budget == 0 {
                break;
            }
            active[ci] = true;
            budget -= 1;
        }
        active
    }

    fn litho_corner(&self, litho: LithoCorner) -> VariationCorner {
        VariationCorner {
            litho,
            label: format!("litho:{litho:?}"),
            ..VariationCorner::nominal()
        }
    }

    fn temp_corner(&self, t: f64) -> VariationCorner {
        VariationCorner {
            temperature: t,
            label: format!("T={t}"),
            ..VariationCorner::nominal()
        }
    }

    fn eta_corner(&self, de: f64) -> VariationCorner {
        VariationCorner {
            eta_shift: de,
            label: format!("dη={de:+.2}"),
            ..VariationCorner::nominal()
        }
    }

    /// Draws one random corner for Monte-Carlo evaluation: uniform litho
    /// corner, uniform temperature in range, standard-normal EOLE weights.
    pub fn sample_random<R: Rng>(&self, rng: &mut R) -> VariationCorner {
        let litho = LithoCorner::ALL[rng.gen_range(0..3usize)];
        let (t_lo, t_hi) = self.temperature.range();
        let temperature = rng.gen_range(t_lo..=t_hi);
        let xi: Vec<f64> = (0..self.eole.terms)
            .map(|_| {
                // Box–Muller standard normal.
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect();
        VariationCorner {
            litho,
            temperature,
            xi,
            label: "mc".to_owned(),
            ..VariationCorner::nominal()
        }
    }

    /// Builds the worst-case corner from objective gradients: one
    /// projected gradient-*descent* step on the FoM (= ascent on the loss)
    /// over `(T, ξ)`, clipped to the operating range / ±3σ.
    ///
    /// `d_fom_dt` and `d_fom_dxi` are the derivatives of the figure of
    /// merit being *maximised*; the worst corner moves against them.
    pub fn worst_case_corner(&self, d_fom_dt: f64, d_fom_dxi: &[f64]) -> VariationCorner {
        let (t_lo, t_hi) = self.temperature.range();
        // Temperature: move to whichever bound degrades the FoM.
        let temperature = if d_fom_dt > 0.0 { t_lo } else { t_hi };
        // ξ: one normalised step of length √K against the gradient,
        // clipped to ±3.
        let k = d_fom_dxi.len();
        let norm = d_fom_dxi.iter().map(|g| g * g).sum::<f64>().sqrt();
        let xi: Vec<f64> = if norm > 0.0 {
            let step = (k as f64).sqrt();
            d_fom_dxi
                .iter()
                .map(|g| (-g / norm * step).clamp(-3.0, 3.0))
                .collect()
        } else {
            vec![0.0; k]
        };
        VariationCorner {
            temperature,
            xi,
            label: "worst-case".to_owned(),
            ..VariationCorner::nominal()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> VariationSpace {
        VariationSpace::default()
    }

    #[test]
    fn corner_counts_match_paper() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(s.corners(SamplingStrategy::NominalOnly, &mut rng).len(), 1);
        assert_eq!(s.corners(SamplingStrategy::CornerSweep, &mut rng).len(), 27);
        assert_eq!(
            s.corners(SamplingStrategy::AxialSingleSided, &mut rng)
                .len(),
            4
        );
        assert_eq!(
            s.corners(SamplingStrategy::AxialDoubleSided, &mut rng)
                .len(),
            7
        );
        assert_eq!(
            s.corners(SamplingStrategy::AxialPlusRandom { count: 2 }, &mut rng)
                .len(),
            9
        );
        // Worst-case corner appended by the optimiser, not here.
        assert_eq!(
            s.corners(SamplingStrategy::AxialPlusWorst, &mut rng).len(),
            7
        );
        assert!(SamplingStrategy::AxialPlusWorst.needs_worst_case());
        assert!(!SamplingStrategy::AxialDoubleSided.needs_worst_case());
    }

    #[test]
    fn weights_sum_to_one() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(2);
        for strat in [
            SamplingStrategy::NominalOnly,
            SamplingStrategy::CornerSweep,
            SamplingStrategy::AxialSingleSided,
            SamplingStrategy::AxialDoubleSided,
            SamplingStrategy::AxialPlusRandom { count: 3 },
        ] {
            let total: f64 = s.corners(strat, &mut rng).iter().map(|c| c.weight).sum();
            assert!((total - 1.0).abs() < 1e-12, "{strat:?}: {total}");
        }
    }

    #[test]
    fn axial_corners_vary_one_axis_at_a_time() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(3);
        let corners = s.corners(SamplingStrategy::AxialDoubleSided, &mut rng);
        assert!(!corners[0].is_varied());
        for c in &corners[1..] {
            let axes_varied = [
                (c.litho != LithoCorner::Nominal) as u8,
                (c.temperature != T_NOMINAL) as u8,
                (c.eta_shift != 0.0) as u8,
            ]
            .iter()
            .sum::<u8>();
            assert_eq!(
                axes_varied, 1,
                "corner {} varies {axes_varied} axes",
                c.label
            );
        }
    }

    #[test]
    fn sweep_covers_all_combinations() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(4);
        let corners = s.corners(SamplingStrategy::CornerSweep, &mut rng);
        let unique: std::collections::BTreeSet<String> =
            corners.iter().map(|c| c.label.clone()).collect();
        assert_eq!(unique.len(), 27);
    }

    #[test]
    fn random_corner_within_bounds() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let c = s.sample_random(&mut rng);
            let (lo, hi) = s.temperature.range();
            assert!(c.temperature >= lo && c.temperature <= hi);
            assert_eq!(c.xi.len(), s.eole.terms);
        }
    }

    #[test]
    fn single_wavelength_spectral_corners_are_identical_to_corners() {
        let s = space();
        for strat in [
            SamplingStrategy::NominalOnly,
            SamplingStrategy::CornerSweep,
            SamplingStrategy::AxialDoubleSided,
            SamplingStrategy::AxialPlusRandom { count: 2 },
        ] {
            // Same RNG seed on both sides: the draws must match too.
            let mut rng_a = StdRng::seed_from_u64(11);
            let mut rng_b = StdRng::seed_from_u64(11);
            let plain = s.corners(strat, &mut rng_a);
            let spectral = s.spectral_corners(strat, 1.55, &mut rng_b);
            assert_eq!(plain, spectral, "{strat:?}");
        }
    }

    #[test]
    fn spectral_cross_product_replicates_corners_per_wavelength() {
        let mut s = space();
        s.spectral = crate::SpectralAxis::around(0.02, 3);
        let mut rng = StdRng::seed_from_u64(12);
        let product = s.spectral_corners(SamplingStrategy::AxialDoubleSided, 1.55, &mut rng);
        assert_eq!(product.len(), 7 * 3);
        // ω-major: the first 7 share ω₀, the next 7 share ω₁, …
        for (i, c) in product.iter().enumerate() {
            assert_eq!(c.omega_idx, i / 7, "{}", c.label);
            assert!(c.label.contains("@λ="), "{}", c.label);
        }
        // Weights renormalised across the whole product.
        let total: f64 = product.iter().map(|c| c.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Each ω group contains exactly one fabrication-nominal corner,
        // and the nominal spectral sample is the centre wavelength.
        for oi in 0..3 {
            let group: Vec<_> = product.iter().filter(|c| c.omega_idx == oi).collect();
            assert_eq!(group.iter().filter(|c| !c.is_varied()).count(), 1);
        }
        assert_eq!(s.spectral.nominal_index(), 1);
    }

    #[test]
    fn at_omega_retargets_and_relabels() {
        let c = VariationCorner::nominal();
        let c2 = c.at_omega(2, 1.57);
        assert_eq!(c2.omega_idx, 2);
        assert!(c2.label.starts_with("nominal@λ=1.57"));
        assert!(!c2.is_varied(), "spectral index is not a fabrication axis");
    }

    #[test]
    fn product_columns_counts_the_cross_product() {
        let mut s = space();
        assert_eq!(s.product_columns(SamplingStrategy::CornerSweep), 27);
        s.spectral = crate::SpectralAxis::around(0.02, 3);
        assert_eq!(s.product_columns(SamplingStrategy::CornerSweep), 81);
        assert_eq!(
            s.product_columns(SamplingStrategy::AxialPlusRandom { count: 2 }),
            9 * 3
        );
        // The shape promise the scheduler relies on: the product really
        // has that many columns.
        let mut rng = StdRng::seed_from_u64(9);
        let product = s.spectral_corners(SamplingStrategy::CornerSweep, 1.55, &mut rng);
        assert_eq!(
            product.len(),
            s.product_columns(SamplingStrategy::CornerSweep)
        );
    }

    #[test]
    fn select_top_columns_keeps_forced_and_ranks_deterministically() {
        let scores = [0.1, 0.9, 0.5, 0.9, 0.0];
        let forced = [false, false, false, false, true];
        // m = 3: the forced column plus the two best scores; the 0.9 tie
        // keeps the lower index.
        let active = VariationSpace::select_top_columns(&scores, &forced, 3);
        assert_eq!(active, [false, true, false, true, true]);
        // m = 1 < forced count: the forced set alone survives.
        let active = VariationSpace::select_top_columns(&scores, &forced, 1);
        assert_eq!(active, [false, false, false, false, true]);
        // m = 0 behaves the same (clamped to the forced set).
        let active = VariationSpace::select_top_columns(&scores, &forced, 0);
        assert_eq!(active, [false, false, false, false, true]);
        // m ≥ len: everything active — the full sweep.
        let active = VariationSpace::select_top_columns(&scores, &forced, 99);
        assert!(active.iter().all(|&a| a));
        // +∞ outranks everything; NaN outranks nothing.
        let scores = [f64::NAN, 0.2, f64::INFINITY];
        let forced = [false; 3];
        let active = VariationSpace::select_top_columns(&scores, &forced, 2);
        assert_eq!(active, [false, true, true]);
    }

    #[test]
    fn worst_case_moves_against_gradient() {
        let s = space();
        // FoM improves with temperature → worst case is the cold bound.
        let w = s.worst_case_corner(0.5, &[1.0, -2.0]);
        assert_eq!(w.temperature, s.temperature.range().0);
        // ξ step is anti-parallel to the gradient.
        assert!(w.xi[0] < 0.0 && w.xi[1] > 0.0);
        // Clipped at ±3.
        assert!(w.xi.iter().all(|x| x.abs() <= 3.0));
        // Zero gradient: flat field, hot bound.
        let w2 = s.worst_case_corner(-0.1, &[0.0, 0.0]);
        assert_eq!(w2.temperature, s.temperature.range().1);
        assert!(w2.xi.iter().all(|&x| x == 0.0));
    }
}
