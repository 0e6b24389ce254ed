//! Temporal-axis benchmark: cross-iteration Krylov recycling + lagged
//! nominal factors over the steady-state robust loop. One broadband
//! robust iteration of the bending benchmark — fabrication model, EM
//! forwards + adjoints, chain backward, spectral aggregation — over the
//! full (27 fabrication corner × 3 wavelength) cross product, with the
//! design drifting a little every iteration (an optimiser step), through
//!
//! * `baseline` — the PR 6 pipeline: every epoch refactors each ω's
//!   nominal operator eagerly and every column's BiCGSTAB starts from
//!   its ω's warm start alone; vs
//! * `recycled` — [`RecycleConfig::enabled`]: each column restarts from
//!   its own remembered previous solution (when its residual beats the
//!   shared warm start), per-(corner, ω)-column deflation stores
//!   harvested from the previous iteration's converged solves
//!   Galerkin-project the start, and the lagged-factor policy
//!   keeps each ω's banded factorisation until diagonal drift, age, or a
//!   budget miss trips a rebuild.
//!
//! The timed region is the whole steady-state robust iteration — the
//! design step, fabrication forwards, the fused product solve (forward +
//! adjoint), and the spectral/chain fold — so the measured ratio is the
//! end-to-end iteration speedup, not just the solver's.
//!
//! `scripts/bench.sh` extracts the two medians into `BENCH_solver.json`
//! as `recycle_speedup` and gates the ratio ≥ 1.5×.

use boson_core::baselines::{levelset_param, standard_chain};
use boson_core::compiled::{CompiledProblem, CornerProductSolve, EvalScratch, RecycleConfig};
use boson_core::fabchain::{assemble_eps, grad_eps_to_rho};
use boson_core::objective::SpectralAggregation;
use boson_core::problem::bending;
use boson_fab::{EtchProjection, SamplingStrategy, SpectralAxis, VariationSpace};
use boson_fdfd::sim::SolverStrategy;
use boson_num::Array2;
use boson_param::Parameterization;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const WAVELENGTHS: usize = 3;
const HALF_SPAN: f64 = 0.02;
/// Per-iteration design-drift amplitude — a small optimiser step, well
/// inside [`RecycleConfig::enabled`]'s `drift_tol`, like the steady
/// state of a converging robust run.
const STEP: f64 = 0.004;

fn bench_recycle(c: &mut Criterion) {
    let problem = bending();
    let axis = SpectralAxis::around(HALF_SPAN, WAVELENGTHS);
    let spectral =
        CompiledProblem::compile_spectral(problem.clone(), axis).expect("spectral compile failed");
    let spec = problem.objective.clone();
    let chain = standard_chain(&problem);
    let space = VariationSpace {
        spectral: axis,
        ..VariationSpace::default()
    };
    let mut rng = StdRng::seed_from_u64(7);
    let corners = space.corners(SamplingStrategy::CornerSweep, &mut rng);
    let nf = corners.len();
    let columns = nf * WAVELENGTHS;
    let nominal_idx = corners
        .iter()
        .position(|c| !c.is_varied())
        .expect("sweep includes the nominal corner");
    let param = levelset_param(&problem, false);
    let rho0 = param.forward(&param.theta_from_geometry(&problem.seed));
    let etch = EtchProjection::new(10.0);
    let agg = SpectralAggregation::Mean;
    let (dr, dc) = problem.design_shape;
    let threads = boson_num::pool::default_threads();
    // Every column of the full ω-major product, in order — the stable
    // recycle keys (column `oi·nf + f` is corner `f` at ω `oi`).
    let global_cols: Vec<usize> = (0..columns).collect();

    // One full-sweep robust iteration at `epoch` on design `rho_now`,
    // mirroring the runner's batched path. `recycle` switches the fused
    // batch onto the per-column deflation stores the scratch owns.
    let iterate =
        |rho_now: &Array2<f64>, epoch: u64, scratch: &mut EvalScratch, recycle: bool| -> f64 {
            let fwds: Vec<_> = corners[..nf]
                .iter()
                .map(|corner| chain.forward_with_etch(rho_now, corner, false, etch))
                .collect();
            let epss_fab: Vec<Array2<f64>> = fwds
                .iter()
                .enumerate()
                .map(|(f, fwd)| {
                    assemble_eps(
                        &problem.background_solid,
                        problem.design_origin,
                        &fwd.rho_fab,
                        corners[f].temperature,
                    )
                })
                .collect();
            let epss: Vec<Array2<f64>> = (0..columns).map(|ci| epss_fab[ci % nf].clone()).collect();
            let omega_idx: Vec<usize> = (0..columns).map(|ci| ci / nf).collect();
            let is_nominal: Vec<bool> = (0..columns).map(|ci| ci % nf == nominal_idx).collect();
            let fab_idx: Vec<usize> = (0..columns).map(|ci| ci % nf).collect();
            let force_direct = vec![false; columns];
            let set = CornerProductSolve {
                strategy: SolverStrategy::preconditioned_iterative(),
                nominal_eps: &epss_fab[nominal_idx],
                epoch,
                omega_idx: &omega_idx,
                is_nominal: &is_nominal,
                force_direct: &force_direct,
                threads,
                skip_zero_weight_adjoints: Some((agg, &fab_idx)),
                recycle: recycle.then_some(global_cols.as_slice()),
            };
            let evals = spectral
                .evaluate_corner_product(&epss, true, &spec, scratch, &set)
                .expect("recycle sweep failed");
            // Spectral fold + one VJP per fabrication corner.
            let w = 1.0 / nf as f64;
            let mut values = [0.0; WAVELENGTHS];
            let mut sweights = [0.0; WAVELENGTHS];
            let mut obj = 0.0;
            let mut v_fab = Array2::<f64>::zeros(dr, dc);
            for f in 0..nf {
                for oi in 0..WAVELENGTHS {
                    values[oi] = evals[oi * nf + f].objective;
                }
                obj += w * agg.aggregate_masked(&values, &[true; WAVELENGTHS]);
                agg.weights_into_masked(&values, &[true; WAVELENGTHS], &mut sweights);
                let mut seed = Array2::<f64>::zeros(dr, dc);
                for oi in 0..WAVELENGTHS {
                    let wk = sweights[oi];
                    if wk != 0.0 {
                        let v_rho = grad_eps_to_rho(
                            evals[oi * nf + f]
                                .grad_eps
                                .as_ref()
                                .expect("weighted entry carries a gradient"),
                            problem.design_origin,
                            problem.design_shape,
                            corners[f].temperature,
                        );
                        for (dst, src) in seed.as_mut_slice().iter_mut().zip(v_rho.as_slice()) {
                            *dst += wk * src;
                        }
                    }
                }
                let v_mask = chain.vjp_mask_with_etch(&fwds[f], &seed, etch);
                for (dst, src) in v_fab.as_mut_slice().iter_mut().zip(v_mask.as_slice()) {
                    *dst += w * src;
                }
            }
            obj + v_fab[(0, 0)]
        };

    // The per-iteration design step: a small deterministic drift of the
    // level-set field, identical on both sides of the comparison.
    let step = |rho_now: &mut Array2<f64>, epoch: u64| {
        for (i, (dst, &base)) in rho_now
            .as_mut_slice()
            .iter_mut()
            .zip(rho0.as_slice())
            .enumerate()
        {
            let phase = epoch as f64 * 0.7 + i as f64 * 0.13;
            *dst = (base + STEP * phase.sin()).clamp(0.0, 1.0);
        }
    };

    let mut group = c.benchmark_group("recycle_27corner_3wl");
    // Both sides are long (~1 s) end-to-end iterations on a shared-host
    // container: sixteen samples keep the gated medians robust to a
    // transient noisy-neighbour window hitting one side of the pair.
    group.sample_size(16);

    group.bench_function("baseline", |b| {
        let mut scratch = EvalScratch::new();
        scratch.configure_recycling(&RecycleConfig::default());
        let mut rho_now = rho0.clone();
        let mut epoch = 0u64;
        // Warm-up: two untimed iterations size every buffer and factor.
        for _ in 0..2 {
            step(&mut rho_now, epoch);
            iterate(&rho_now, epoch, &mut scratch, false);
            epoch += 1;
        }
        b.iter(|| {
            step(&mut rho_now, epoch);
            let obj = iterate(&rho_now, epoch, &mut scratch, false);
            epoch += 1;
            black_box(obj)
        })
    });

    group.bench_function("recycled", |b| {
        let mut scratch = EvalScratch::new();
        scratch.configure_recycling(&RecycleConfig::enabled());
        let mut rho_now = rho0.clone();
        let mut epoch = 0u64;
        // Warm-up: two untimed iterations fill the deflation stores and
        // build the lagged factors, so the timed region is the steady
        // state the temporal axis targets.
        for _ in 0..2 {
            step(&mut rho_now, epoch);
            iterate(&rho_now, epoch, &mut scratch, true);
            epoch += 1;
        }
        b.iter(|| {
            step(&mut rho_now, epoch);
            let obj = iterate(&rho_now, epoch, &mut scratch, true);
            epoch += 1;
            black_box(obj)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(16);
    targets = bench_recycle
}
criterion_main!(benches);
