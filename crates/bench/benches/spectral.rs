//! Broadband robust-iteration benchmark: one (27 fabrication corner × 3
//! wavelength) sweep of the bending benchmark with gradients, through
//!
//! * `naive_recompile` — the pre-spectral idiom: re-compile the problem
//!   at every wavelength (modes + launched-power calibration) and factor
//!   every corner directly, every iteration; vs
//! * `batched` — the spectral pipeline: per-ω calibration compiled
//!   **once** (outside the timed loop, where a real run pays it once per
//!   design), then per iteration one nominal factorisation per
//!   wavelength and one fused preconditioned-iterative lockstep batch
//!   over the whole (corner × ω) product
//!   ([`CompiledProblem::evaluate_corner_product`]), with the
//!   workspace's per-ω slots keeping all three stencil caches and
//!   nominal factors resident.
//!
//! `scripts/bench.sh` extracts the two medians into `BENCH_solver.json`
//! as `spectral_batch_speedup` and gates the ratio ≥ 2×.

use boson_core::baselines::{levelset_param, standard_chain};
use boson_core::compiled::{CompiledProblem, CornerProductSolve, EvalScratch};
use boson_core::fabchain::assemble_eps;
use boson_core::problem::bending;
use boson_fab::{SamplingStrategy, SpectralAxis, VariationSpace};
use boson_fdfd::sim::SolverStrategy;
use boson_num::Array2;
use boson_param::Parameterization;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const WAVELENGTHS: usize = 3;
const HALF_SPAN: f64 = 0.02;

fn bench_broadband(c: &mut Criterion) {
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
    // The 27 fabrication corners of the exhaustive sweep, materialised to
    // permittivity maps once (they are ω-independent; both sides solve
    // the identical systems).
    let mut rng = StdRng::seed_from_u64(7);
    let corners = space.corners(SamplingStrategy::CornerSweep, &mut rng);
    let nominal_idx = corners
        .iter()
        .position(|c| !c.is_varied())
        .expect("sweep includes the nominal corner");
    let param = levelset_param(&problem, false);
    let rho = param.forward(&param.theta_from_geometry(&problem.seed));
    let epss: Vec<Array2<f64>> = corners
        .iter()
        .map(|corner| {
            let fwd = chain.forward(&rho, corner, false);
            assemble_eps(
                &problem.background_solid,
                problem.design_origin,
                &fwd.rho_fab,
                corner.temperature,
            )
        })
        .collect();
    let omegas = axis.omegas(problem.omega);
    // The ω-major (corner × ω) product over the same ε maps.
    let nf = epss.len();
    let product: Vec<Array2<f64>> = (0..WAVELENGTHS)
        .flat_map(|_| epss.iter().cloned())
        .collect();
    let omega_idx: Vec<usize> = (0..WAVELENGTHS)
        .flat_map(|oi| std::iter::repeat_n(oi, nf))
        .collect();
    let is_nominal: Vec<bool> = (0..WAVELENGTHS * nf)
        .map(|ci| ci % nf == nominal_idx)
        .collect();
    let force_direct = vec![false; WAVELENGTHS * nf];

    let mut group = c.benchmark_group("broadband_27corner_3wl");
    group.sample_size(10);

    group.bench_function("batched", |b| {
        let mut scratch = EvalScratch::new();
        let mut epoch = 0u64;
        b.iter(|| {
            // A fresh epoch each round: every wavelength re-factors its
            // nominal operator, exactly like a real optimisation
            // iteration.
            epoch += 1;
            let set = CornerProductSolve {
                strategy: SolverStrategy::preconditioned_iterative(),
                nominal_eps: &epss[nominal_idx],
                epoch,
                omega_idx: &omega_idx,
                is_nominal: &is_nominal,
                force_direct: &force_direct,
                threads: 1,
                skip_zero_weight_adjoints: None,
                recycle: None,
            };
            let evals = spectral
                .evaluate_corner_product(&product, true, &spec, &mut scratch, &set)
                .expect("batched sweep failed");
            black_box(evals.iter().map(|e| e.objective).sum::<f64>())
        })
    });

    group.bench_function("naive_recompile", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &omega in &omegas {
                // The pre-spectral wavelength loop: clone, re-target ω,
                // full recompile (modes + calibration), then one direct
                // factorisation per corner.
                let mut p = problem.clone();
                p.omega = omega;
                let compiled = CompiledProblem::compile(p).expect("recompile failed");
                for eps in &epss {
                    let ev = compiled
                        .evaluate_eps(eps, true)
                        .expect("corner evaluation failed");
                    acc += ev.objective;
                }
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_broadband
}
criterion_main!(benches);
