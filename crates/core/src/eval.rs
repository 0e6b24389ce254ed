//! Post-fabrication evaluation (the numbers the paper's tables report).
//!
//! Two views of every design:
//!
//! * **pre-fab** — the design evaluated in the *method's own* model
//!   (no fabrication for non-fab-aware methods, nominal fabrication for
//!   fab-aware ones). This is the number to the left of the arrows in
//!   Tables I/III.
//! * **post-fab** — Monte-Carlo over the true variation distribution
//!   (random litho corner, temperature, EOLE η field) with the *hard*
//!   etch threshold: honest binary-device performance. This is the number
//!   to the right of the arrows.

use crate::compiled::{CompiledProblem, EvalScratch, Evaluation};
use crate::fabchain::{assemble_eps, FabChain};
use crate::objective::Readings;
use boson_fab::{VariationCorner, VariationSpace};
use boson_num::banded::SingularMatrixError;
use boson_num::stats::Summary;
use boson_num::Array2;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Result of a Monte-Carlo post-fab evaluation.
#[derive(Debug, Clone)]
pub struct PostFabReport {
    /// Mean figure of merit over the samples.
    pub fom: Summary,
    /// Mean of every reading, keyed `"excitation/monitor"`.
    pub readings_mean: HashMap<String, f64>,
    /// Per-sample FoM values.
    pub samples: Vec<f64>,
}

/// Binarises a continuous mask at 0.5 (a real mask is binary).
pub fn binarize_mask(mask: &Array2<f64>) -> Array2<f64> {
    mask.map(|&v| if v > 0.5 { 1.0 } else { 0.0 })
}

/// Evaluates `mask` with no fabrication model at all (the "ideal" view of
/// Density/LS-style methods): the binarised mask *is* the device.
pub fn evaluate_ideal(compiled: &CompiledProblem, mask: &Array2<f64>) -> (f64, Readings) {
    let problem = compiled.problem();
    let rho = binarize_mask(mask);
    let eps = assemble_eps(
        &problem.background_solid,
        problem.design_origin,
        &rho,
        boson_fab::temperature::T_NOMINAL,
    );
    let ev = compiled
        .evaluate_eps(&eps, false)
        .expect("ideal evaluation failed");
    (ev.fom, ev.readings)
}

/// Evaluates `mask` through the *nominal* fabrication corner with the
/// hard etch threshold (a fab-aware method's own claimed performance).
pub fn evaluate_nominal_fab(
    compiled: &CompiledProblem,
    chain: &FabChain,
    mask: &Array2<f64>,
) -> (f64, Readings) {
    let problem = compiled.problem();
    let corner = VariationCorner::nominal();
    let fwd = chain.forward(&binarize_mask(mask), &corner, true);
    let eps = assemble_eps(
        &problem.background_solid,
        problem.design_origin,
        &fwd.rho_fab,
        corner.temperature,
    );
    let ev = compiled
        .evaluate_eps(&eps, false)
        .expect("nominal fab evaluation failed");
    (ev.fom, ev.readings)
}

/// Monte-Carlo post-fab evaluation: `samples` random variation draws,
/// hard etch threshold.
///
/// One [`EvalScratch`] serves every sample, so the band storage, factors
/// and field blocks are allocated once per report, not once per sample.
pub fn evaluate_post_fab(
    compiled: &CompiledProblem,
    chain: &FabChain,
    space: &VariationSpace,
    mask: &Array2<f64>,
    samples: usize,
    seed: u64,
) -> PostFabReport {
    let spec = &compiled.problem().objective;
    let mut scratch = EvalScratch::new();
    post_fab_with(compiled, chain, space, mask, samples, seed, |eps| {
        compiled.evaluate_eps_scratch(eps, false, spec, &mut scratch)
    })
}

/// The body of [`evaluate_post_fab`] over a given per-sample evaluation.
fn post_fab_with(
    compiled: &CompiledProblem,
    chain: &FabChain,
    space: &VariationSpace,
    mask: &Array2<f64>,
    samples: usize,
    seed: u64,
    mut evaluate: impl FnMut(&Array2<f64>) -> Result<Evaluation, SingularMatrixError>,
) -> PostFabReport {
    let problem = compiled.problem();
    let binary = binarize_mask(mask);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut foms = Vec::with_capacity(samples);
    let mut sums: HashMap<String, f64> = HashMap::new();
    for _ in 0..samples {
        let corner = space.sample_random(&mut rng);
        let fwd = chain.forward(&binary, &corner, true);
        let eps = assemble_eps(
            &problem.background_solid,
            problem.design_origin,
            &fwd.rho_fab,
            corner.temperature,
        );
        let ev = evaluate(&eps).expect("MC evaluation failed");
        foms.push(ev.fom);
        for (ei, map) in ev.readings.iter().enumerate() {
            for (k, v) in map {
                *sums
                    .entry(format!("{}/{k}", problem.excitations[ei].name))
                    .or_default() += v;
            }
        }
    }
    let readings_mean = sums
        .into_iter()
        .map(|(k, v)| (k, v / samples as f64))
        .collect();
    PostFabReport {
        fom: Summary::from_samples(&foms),
        readings_mean,
        samples: foms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::bending;
    use boson_fab::{EoleField, EoleParams, EtchProjection};
    use boson_litho::{LithoConfig, LithoModel};
    use boson_param::sdf::Geometry;
    use boson_param::{LevelSetConfig, LevelSetParam, Parameterization};

    fn setup() -> (CompiledProblem, FabChain, VariationSpace, Array2<f64>) {
        let compiled = CompiledProblem::compile(bending()).unwrap();
        let p = compiled.problem().clone();
        let (dr, dc) = p.design_shape;
        let chain = FabChain::new(
            LithoModel::new(dr, dc, p.grid.dx, LithoConfig::default()),
            EtchProjection::new(30.0),
            EoleField::new(dr, dc, p.grid.dx, EoleParams::default()),
        );
        let space = VariationSpace::default();
        let ls = LevelSetParam::new(dr, dc, p.grid.dx, LevelSetConfig::default());
        let seed: Geometry = p.seed.clone();
        let mask = ls.forward(&ls.theta_from_geometry(&seed));
        (compiled, chain, space, mask)
    }

    #[test]
    fn binarize_is_binary() {
        let m = Array2::from_fn(4, 4, |r, c| (r + c) as f64 / 6.0);
        let b = binarize_mask(&m);
        for v in b.as_slice() {
            assert!(*v == 0.0 || *v == 1.0);
        }
    }

    #[test]
    fn ideal_vs_fab_evaluations_differ() {
        let (compiled, chain, _space, mask) = setup();
        let (fom_ideal, _) = evaluate_ideal(&compiled, &mask);
        let (fom_fab, _) = evaluate_nominal_fab(&compiled, &chain, &mask);
        // The smooth arc survives fabrication decently — both are finite,
        // positive transmissions, but they are not identical.
        assert!(fom_ideal > 0.1);
        assert!(fom_fab > 0.05);
        assert!((fom_ideal - fom_fab).abs() > 1e-6);
    }

    #[test]
    fn post_fab_is_deterministic_per_seed() {
        let (compiled, chain, space, mask) = setup();
        let r1 = evaluate_post_fab(&compiled, &chain, &space, &mask, 3, 11);
        let r2 = evaluate_post_fab(&compiled, &chain, &space, &mask, 3, 11);
        assert_eq!(r1.samples, r2.samples);
        let r3 = evaluate_post_fab(&compiled, &chain, &space, &mask, 3, 12);
        assert_ne!(r1.samples, r3.samples);
    }

    #[test]
    fn post_fab_shared_scratch_matches_a_fresh_scratch_per_sample() {
        let (compiled, chain, space, mask) = setup();
        let shared = evaluate_post_fab(&compiled, &chain, &space, &mask, 3, 11);
        let fresh = post_fab_with(&compiled, &chain, &space, &mask, 3, 11, |eps| {
            compiled.evaluate_eps(eps, false)
        });
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&shared.samples), bits(&fresh.samples));
        assert_eq!(shared.fom.mean.to_bits(), fresh.fom.mean.to_bits());
        assert_eq!(shared.fom.std.to_bits(), fresh.fom.std.to_bits());
        assert_eq!(shared.readings_mean.len(), fresh.readings_mean.len());
        for (k, v) in &shared.readings_mean {
            assert_eq!(v.to_bits(), fresh.readings_mean[k].to_bits(), "{k}");
        }
    }

    #[test]
    fn post_fab_report_contains_readings() {
        let (compiled, chain, space, mask) = setup();
        let r = evaluate_post_fab(&compiled, &chain, &space, &mask, 2, 5);
        assert_eq!(r.fom.n, 2);
        assert!(r.readings_mean.contains_key("fwd/trans"));
        assert!(r.readings_mean.contains_key("fwd/refl"));
    }
}
