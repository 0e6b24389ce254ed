//! Method zoo: BOSON-1 and every baseline from the paper's tables.
//!
//! Notation (paper §IV-B): `LS`/`Density` choose the parameterisation;
//! `-M` adds heuristic minimum-feature-size control; `InvFabCor-#` is the
//! two-stage flow (free optimisation, then inverse-lithography mask
//! correction matching `#` litho corners); `-eff` swaps the isolator
//! objective from contrast to transmission efficiency. `BOSON-1` is the
//! full method: level set, fabrication-aware subspace optimisation, dense
//! objectives, conditional subspace relaxation and axial+worst-case
//! sampling.

use crate::compiled::CompiledProblem;
use crate::fabchain::FabChain;
use crate::objective::MainObjective;
use crate::optimizer::{Adam, AdamConfig};
use crate::problem::DeviceProblem;
use crate::runner::{InitKind, InverseDesigner, IterationRecord, RunnerConfig};
use crate::schedule::RelaxationSchedule;
use boson_fab::{
    EoleField, EoleParams, EtchProjection, SamplingStrategy, VariationCorner, VariationSpace,
};
use boson_fdfd::sim::SolverStrategy;
use boson_litho::{LithoConfig, LithoCorner, LithoModel};
use boson_num::Array2;
use boson_param::{DensityConfig, DensityParam, LevelSetConfig, LevelSetParam};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which parameterisation a method uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParamKind {
    /// Coarse-control level set (≈ 0.1 µm control pitch).
    LevelSet,
    /// Per-pixel density.
    Density,
}

/// Stage-2 inverse-lithography mask correction settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MaskCorrectionSpec {
    /// Number of lithography corners matched (1 = nominal, 3 = all).
    pub litho_corners: usize,
    /// Correction iterations (cheap — no EM solves).
    pub iterations: usize,
    /// Adam learning rate for the correction.
    pub lr: f64,
}

impl Default for MaskCorrectionSpec {
    fn default() -> Self {
        Self {
            litho_corners: 3,
            iterations: 150,
            lr: 0.1,
        }
    }
}

/// Full description of one method row in the paper's tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodSpec {
    /// Table label ("Density", "InvFabCor-M-3", "BOSON-1", …).
    pub name: String,
    /// Parameterisation.
    pub param: ParamKind,
    /// Heuristic MFS control ("-M").
    pub mfs_control: bool,
    /// Optimise through the fabrication model.
    pub fab_aware: bool,
    /// Dense auxiliary objectives (landscape reshaping).
    pub dense_objectives: bool,
    /// Variation sampling strategy (only used when `fab_aware`).
    pub sampling: SamplingStrategy,
    /// Subspace relaxation epochs (0 = none).
    pub relax_epochs: usize,
    /// Initialisation.
    pub init: InitKind,
    /// Optional stage-2 mask correction (the "InvFabCor" family).
    pub correction: Option<MaskCorrectionSpec>,
    /// Optional main-objective override (the "-eff" variant).
    pub objective_override: Option<MainObjective>,
    /// Learning-rate multiplier relative to [`BaseRunConfig::lr`]
    /// (per-pixel density parameters want larger steps than level-set
    /// control values).
    pub lr_scale: f64,
}

impl MethodSpec {
    /// The full BOSON-1 method.
    pub fn boson1(iterations: usize) -> Self {
        Self {
            name: "BOSON-1".into(),
            param: ParamKind::LevelSet,
            mfs_control: false,
            fab_aware: true,
            dense_objectives: true,
            sampling: SamplingStrategy::AxialPlusWorst,
            relax_epochs: iterations / 2,
            init: InitKind::Seeded,
            correction: None,
            objective_override: None,
            lr_scale: 1.0,
        }
    }

    /// Conventional density-based inverse design (no MFS, no fab model).
    pub fn density() -> Self {
        Self {
            name: "Density".into(),
            param: ParamKind::Density,
            mfs_control: false,
            fab_aware: false,
            dense_objectives: false,
            sampling: SamplingStrategy::NominalOnly,
            relax_epochs: 0,
            init: InitKind::Seeded,
            correction: None,
            objective_override: None,
            lr_scale: 4.0,
        }
    }

    /// Density with blur-based MFS control.
    pub fn density_m() -> Self {
        Self {
            name: "Density-M".into(),
            mfs_control: true,
            ..Self::density()
        }
    }

    /// Level-set free optimisation.
    pub fn ls() -> Self {
        Self {
            name: "LS".into(),
            param: ParamKind::LevelSet,
            ..Self::density()
        }
    }

    /// Level set with coarse (MFS-safe) control grid.
    pub fn ls_m() -> Self {
        Self {
            name: "LS-M".into(),
            mfs_control: true,
            ..Self::ls()
        }
    }

    /// Two-stage inverse fabrication correction on `base`, matching
    /// `corners` litho corners.
    pub fn inv_fab_cor(base: MethodSpec, corners: usize) -> Self {
        let m = if base.mfs_control { "-M" } else { "" };
        Self {
            name: format!("InvFabCor{m}-{corners}"),
            correction: Some(MaskCorrectionSpec {
                litho_corners: corners,
                ..Default::default()
            }),
            ..base
        }
    }

    /// The ten-method comparison of Table III (isolator).
    pub fn table3_methods(iterations: usize) -> Vec<MethodSpec> {
        let mut eff = Self::inv_fab_cor(Self::ls_m(), 3);
        eff.name = "InvFabCor-M-3-eff".into();
        eff.objective_override = Some(MainObjective::MaximizePower {
            excitation: 0,
            monitor: "trans3".into(),
        });
        vec![
            Self::density(),
            Self::density_m(),
            Self::ls(),
            Self::ls_m(),
            Self::inv_fab_cor(Self::ls(), 1),
            Self::inv_fab_cor(Self::ls(), 3),
            Self::inv_fab_cor(Self::ls_m(), 1),
            Self::inv_fab_cor(Self::ls_m(), 3),
            eff,
            Self::boson1(iterations),
        ]
    }

    /// The three-method comparison of Table I.
    pub fn table1_methods(iterations: usize) -> Vec<MethodSpec> {
        vec![
            Self::density(),
            Self::inv_fab_cor(Self::ls_m(), 3),
            Self::boson1(iterations),
        ]
    }
}

/// Shared run parameters (grid-scale knobs independent of the method).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaseRunConfig {
    /// Optimisation iterations.
    pub iterations: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads; defaults to [`boson_num::pool::default_threads`].
    pub threads: usize,
    /// Corner linear-solver strategy (a runtime knob, not a method
    /// property: every method row can run under either solver).
    pub solver: SolverStrategy,
}

impl Default for BaseRunConfig {
    fn default() -> Self {
        Self {
            iterations: 40,
            lr: 0.02,
            seed: 7,
            threads: boson_num::pool::default_threads(),
            solver: SolverStrategy::Direct,
        }
    }
}

/// A completed method run.
#[derive(Debug, Clone)]
pub struct MethodRun {
    /// Method label.
    pub name: String,
    /// Final (continuous) mask (post-correction for InvFabCor methods).
    pub mask: Array2<f64>,
    /// The stage-1 mask before mask correction (equals `mask` for
    /// single-stage methods).
    pub stage1_mask: Array2<f64>,
    /// Optimisation trace.
    pub trajectory: Vec<IterationRecord>,
    /// Total factorisations (simulation cost).
    pub factorizations: usize,
}

/// Builds the standard fabrication chain for a problem's design region.
pub fn standard_chain(problem: &DeviceProblem) -> FabChain {
    let (dr, dc) = problem.design_shape;
    FabChain::new(
        LithoModel::new(dr, dc, problem.grid.dx, LithoConfig::default()),
        EtchProjection::new(25.0),
        EoleField::new(dr, dc, problem.grid.dx, EoleParams::default()),
    )
}

/// Control-pitch helper: number of level-set control points for a span.
fn control_points(cells: usize, dx: f64, pitch: f64) -> usize {
    ((cells as f64 * dx / pitch).round() as usize + 1).max(4)
}

/// Builds the level-set parameterisation used by a method.
pub fn levelset_param(problem: &DeviceProblem, mfs: bool) -> LevelSetParam {
    let (dr, dc) = problem.design_shape;
    // "-M": control pitch ≥ the litho MFS (≈0.16 µm) so no sub-resolution
    // feature can even be expressed; otherwise ~0.1 µm.
    let pitch = if mfs { 0.2 } else { 0.1 };
    LevelSetParam::new(
        dr,
        dc,
        problem.grid.dx,
        LevelSetConfig {
            control_rows: control_points(dr, problem.grid.dx, pitch),
            control_cols: control_points(dc, problem.grid.dx, pitch),
            smoothing: 0.05,
        },
    )
}

/// Builds the density parameterisation used by a method.
pub fn density_param(problem: &DeviceProblem, mfs: bool) -> DensityParam {
    let (dr, dc) = problem.design_shape;
    DensityParam::new(
        dr,
        dc,
        problem.grid.dx,
        DensityConfig {
            sharpness: 4.0,
            // Blur σ ≈ half the litho MFS, in cells.
            blur_radius: if mfs { 1.6 } else { 0.0 },
        },
    )
}

/// Stage-2 inverse-lithography mask correction: find a mask whose
/// post-fabrication pattern matches `target` across the requested litho
/// corners (L2 loss, Adam, no EM solves).
pub fn mask_correction(
    chain: &FabChain,
    target: &Array2<f64>,
    spec: &MaskCorrectionSpec,
) -> Array2<f64> {
    let (dr, dc) = target.shape();
    let corners: Vec<LithoCorner> = match spec.litho_corners {
        0 | 1 => vec![LithoCorner::Nominal],
        2 => vec![LithoCorner::Min, LithoCorner::Max],
        _ => LithoCorner::ALL.to_vec(),
    };
    // Latent per-pixel variables through a sigmoid; start at the target.
    let sharp = 4.0;
    let mut theta: Vec<f64> = target
        .as_slice()
        .iter()
        .map(|&t| if t > 0.5 { 1.0 } else { -1.0 })
        .collect();
    let sigmoid = |t: f64| 1.0 / (1.0 + (-sharp * t).exp());
    let mut adam = Adam::new(
        theta.len(),
        AdamConfig {
            lr: spec.lr,
            ..Default::default()
        },
    );
    let n = (dr * dc) as f64;
    for _ in 0..spec.iterations {
        let mask = Array2::from_fn(dr, dc, |r, c| sigmoid(theta[r * dc + c]));
        let mut grad_mask = Array2::<f64>::zeros(dr, dc);
        for lc in &corners {
            let corner = VariationCorner {
                litho: *lc,
                ..VariationCorner::nominal()
            };
            let fwd = chain.forward(&mask, &corner, false);
            // loss_c = mean((ρ_fab − target)²); we *descend*, so feed the
            // negated cotangent to the ascent optimiser later.
            let v = fwd.rho_fab.zip_map(target, |a, b| 2.0 * (a - b) / n);
            let g = chain.vjp_mask(&fwd, &v);
            grad_mask += &g;
        }
        // Chain through the sigmoid and ascend on -loss.
        let grad_theta: Vec<f64> = (0..theta.len())
            .map(|k| {
                let s = sigmoid(theta[k]);
                -grad_mask.as_slice()[k] * sharp * s * (1.0 - s)
            })
            .collect();
        adam.step(&mut theta, &grad_theta);
    }
    Array2::from_fn(dr, dc, |r, c| sigmoid(theta[r * dc + c]))
}

/// Runs one method end-to-end (stage 1 optimisation + optional stage 2
/// correction) and returns the final mask.
pub fn run_method(
    compiled: &CompiledProblem,
    spec: &MethodSpec,
    base: &BaseRunConfig,
) -> MethodRun {
    let mut problem = compiled.problem().clone();
    if let Some(over) = &spec.objective_override {
        problem.objective.main = over.clone();
    }
    // Rebuild a compiled problem only if the objective changed (compile is
    // cheap relative to a run).
    let owned_compiled;
    let compiled_ref: &CompiledProblem = if spec.objective_override.is_some() {
        owned_compiled = CompiledProblem::compile(problem.clone()).expect("recompile failed");
        &owned_compiled
    } else {
        compiled
    };

    let chain = standard_chain(&problem);
    let space = VariationSpace::default();
    let config = RunnerConfig {
        iterations: base.iterations,
        adam: AdamConfig {
            lr: base.lr * spec.lr_scale,
            ..Default::default()
        },
        sampling: spec.sampling,
        relaxation: RelaxationSchedule::over(spec.relax_epochs),
        beta_start: 10.0,
        beta_end: 40.0,
        dense_objectives: spec.dense_objectives,
        fab_aware: spec.fab_aware,
        init: spec.init,
        seed: base.seed,
        threads: base.threads,
        solver: base.solver,
        // The paper's methods are single-wavelength; broadband runs build
        // their RunnerConfig directly (see examples/broadband_bend.rs).
        spectral_agg: crate::objective::SpectralAggregation::Mean,
        // The comparison methods sweep their full corner sets — adaptive
        // subspace scheduling is a production-run feature, not part of
        // the paper's baseline protocol.
        subspace: crate::subspace::SubspaceConfig::default(),
        // Likewise the temporal axis (Krylov recycling + lagged factors)
        // stays off: the baselines are measured on the eager pipeline.
        recycle: crate::compiled::RecycleConfig::default(),
    };

    let mut rng = StdRng::seed_from_u64(base.seed);
    let (mask, trajectory, factorizations) = match spec.param {
        ParamKind::LevelSet => {
            let param = levelset_param(&problem, spec.mfs_control);
            let mut designer =
                InverseDesigner::new(compiled_ref, &param, chain.clone(), space, config);
            let theta0 = designer.initial_theta(&mut rng);
            let res = designer.run(theta0);
            (res.mask, res.trajectory, res.factorizations)
        }
        ParamKind::Density => {
            let param = density_param(&problem, spec.mfs_control);
            let mut designer =
                InverseDesigner::new(compiled_ref, &param, chain.clone(), space, config);
            let theta0 = designer.initial_theta(&mut rng);
            let res = designer.run(theta0);
            (res.mask, res.trajectory, res.factorizations)
        }
    };

    // Stage 2: mask correction toward the stage-1 pattern.
    let stage1_mask = mask.clone();
    let final_mask = if let Some(corr) = &spec.correction {
        let target = crate::eval::binarize_mask(&mask);
        mask_correction(&chain, &target, corr)
    } else {
        mask
    };

    MethodRun {
        name: spec.name.clone(),
        mask: final_mask,
        stage1_mask,
        trajectory,
        factorizations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::bending;
    use boson_param::Parameterization;

    #[test]
    fn method_roster_matches_tables() {
        let t3 = MethodSpec::table3_methods(40);
        assert_eq!(t3.len(), 10);
        let names: Vec<&str> = t3.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "Density",
                "Density-M",
                "LS",
                "LS-M",
                "InvFabCor-1",
                "InvFabCor-3",
                "InvFabCor-M-1",
                "InvFabCor-M-3",
                "InvFabCor-M-3-eff",
                "BOSON-1"
            ]
        );
        let t1 = MethodSpec::table1_methods(40);
        assert_eq!(t1.len(), 3);
        assert_eq!(t1[2].name, "BOSON-1");
    }

    #[test]
    fn boson1_uses_all_techniques() {
        let m = MethodSpec::boson1(40);
        assert!(m.fab_aware);
        assert!(m.dense_objectives);
        assert_eq!(m.sampling, SamplingStrategy::AxialPlusWorst);
        assert!(m.relax_epochs > 0);
        assert!(m.correction.is_none());
    }

    #[test]
    fn baselines_disable_fab_model() {
        for m in [MethodSpec::density(), MethodSpec::ls(), MethodSpec::ls_m()] {
            assert!(!m.fab_aware, "{}", m.name);
            assert!(!m.dense_objectives, "{}", m.name);
        }
    }

    #[test]
    fn parameterisation_pitch_respects_mfs() {
        let p = bending();
        let fine = levelset_param(&p, false);
        let coarse = levelset_param(&p, true);
        assert!(fine.num_params() > coarse.num_params());
        let d = density_param(&p, false);
        assert_eq!(d.num_params(), 28 * 28);
    }

    #[test]
    fn mask_correction_recovers_fabricable_target() {
        // A large square is fabricable: the corrected mask must reproduce
        // it through the litho model better than the raw target does…
        let p = bending();
        let chain = standard_chain(&p);
        let (dr, dc) = p.design_shape;
        let target = Array2::from_fn(dr, dc, |r, c| {
            if (8..20).contains(&r) && (8..20).contains(&c) {
                1.0
            } else {
                0.0
            }
        });
        let corrected = mask_correction(
            &chain,
            &target,
            &MaskCorrectionSpec {
                litho_corners: 3,
                iterations: 60,
                lr: 0.15,
            },
        );
        let err = |mask: &Array2<f64>| -> f64 {
            let fwd = chain.forward(mask, &VariationCorner::nominal(), false);
            fwd.rho_fab.zip_map(&target, |a, b| (a - b) * (a - b)).sum()
        };
        let e_raw = err(&target);
        let e_corr = err(&corrected);
        assert!(
            e_corr < e_raw,
            "correction should reduce pattern error: {e_corr} !< {e_raw}"
        );
    }
}
