//! Adaptive corner-subspace scheduling benchmark: one broadband robust
//! iteration of the bending benchmark — fabrication model, EM forwards +
//! adjoints, chain backward, spectral aggregation — over the (27
//! fabrication corner × 3 wavelength) cross product, through
//!
//! * `full_sweep` — the fused production full sweep: all 81 (corner, ω)
//!   columns of the product, one lockstep batch; vs
//! * `adaptive` — the subspace-scheduled iteration: a warmed-up
//!   [`SubspaceScheduler`] plans the top-M active columns (M = 27 ≈ ⅓ of
//!   the product; the per-ω nominal columns always included), only those
//!   columns are solved and folded, and the scheduler's EMA update from
//!   the observed objectives/weights is **inside** the timed region —
//!   the measured iteration is the whole steady-state schedule step, not
//!   just the cheaper sweep.
//!
//! The spectral aggregation is `Mean` — the production default — so
//! every evaluated column carries gradient weight and both sides solve
//! one adjoint per forward: the adaptive saving is purely the column
//! count (81 → 27 forwards *and* adjoints). (Under `WorstCase` the full
//! sweep already drops the zero-weight ⅔ of its adjoints, so the
//! subspace saving there is forwards-only — real, but smaller.)
//!
//! `scripts/bench.sh` extracts the two medians into `BENCH_solver.json`
//! as `subspace_speedup` and gates the ratio ≥ 1.5×.

use boson_core::baselines::{levelset_param, standard_chain};
use boson_core::compiled::{CompiledProblem, CornerProductSolve, EvalScratch};
use boson_core::fabchain::{assemble_eps, grad_eps_to_rho};
use boson_core::objective::SpectralAggregation;
use boson_core::problem::bending;
use boson_core::subspace::{SubspaceConfig, SubspaceScheduler};
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
/// Active columns of the adaptive schedule: ⅓ of the 81-column product.
const ACTIVE_M: usize = 27;

fn bench_subspace(c: &mut Criterion) {
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
    let rho = param.forward(&param.theta_from_geometry(&problem.seed));
    let etch = EtchProjection::new(10.0);
    let agg = SpectralAggregation::Mean;
    let (dr, dc) = problem.design_shape;
    // `BOSON_THREADS` overrides the sweep-split width (the bench crate's
    // standard knob); default: all cores, like a production run.
    let threads = boson_num::pool::default_threads();
    // ω-major product metadata: column oi·nf + f is corner f at ω oi.
    let forced: Vec<bool> = (0..columns).map(|ci| ci % nf == nominal_idx).collect();

    // One robust-iteration fan-out over the `active` columns, mirroring
    // the runner's subspace-aware batched path: fabrication model once
    // per live corner, one fused lockstep batch over the active columns,
    // masked spectral fold, one ω-folded chain VJP per live corner.
    // Returns the robust objective and the (column, objective, weight)
    // observations that feed the scheduler.
    let iterate = |active: &[bool],
                   epoch: u64,
                   scratch: &mut EvalScratch,
                   observations: &mut Vec<(usize, f64, f64)>|
     -> f64 {
        observations.clear();
        let live: Vec<usize> = (0..nf)
            .filter(|&f| (0..WAVELENGTHS).any(|oi| active[oi * nf + f]))
            .collect();
        let fwds: Vec<_> = live
            .iter()
            .map(|&f| chain.forward_with_etch(&rho, &corners[f], false, etch))
            .collect();
        let epss_live: Vec<Array2<f64>> = live
            .iter()
            .zip(&fwds)
            .map(|(&f, fwd)| {
                assemble_eps(
                    &problem.background_solid,
                    problem.design_origin,
                    &fwd.rho_fab,
                    corners[f].temperature,
                )
            })
            .collect();
        let mut sel: Vec<(usize, usize)> = Vec::with_capacity(columns);
        let mut pos_of = vec![usize::MAX; WAVELENGTHS * live.len()];
        for oi in 0..WAVELENGTHS {
            for (li, &f) in live.iter().enumerate() {
                if active[oi * nf + f] {
                    pos_of[oi * live.len() + li] = sel.len();
                    sel.push((oi, li));
                }
            }
        }
        let epss: Vec<Array2<f64>> = sel.iter().map(|&(_, li)| epss_live[li].clone()).collect();
        let omega_idx: Vec<usize> = sel.iter().map(|&(oi, _)| oi).collect();
        let is_nominal: Vec<bool> = sel.iter().map(|&(_, li)| live[li] == nominal_idx).collect();
        let fab_idx: Vec<usize> = sel.iter().map(|&(_, li)| li).collect();
        let force_direct = vec![false; sel.len()];
        let set = CornerProductSolve {
            strategy: SolverStrategy::preconditioned_iterative(),
            nominal_eps: &epss_live[live
                .iter()
                .position(|&f| f == nominal_idx)
                .expect("nominal corner is always live")],
            epoch,
            omega_idx: &omega_idx,
            is_nominal: &is_nominal,
            force_direct: &force_direct,
            threads,
            skip_zero_weight_adjoints: Some((agg, &fab_idx)),
            recycle: None,
        };
        let evals = spectral
            .evaluate_corner_product(&epss, true, &spec, scratch, &set)
            .expect("subspace sweep failed");
        // Masked spectral fold + one VJP per live corner.
        let w = 1.0 / live.len() as f64;
        let mut values = [0.0; WAVELENGTHS];
        let mut omask = [false; WAVELENGTHS];
        let mut sweights = [0.0; WAVELENGTHS];
        let mut obj = 0.0;
        let mut v_fab = Array2::<f64>::zeros(dr, dc);
        for (li, &f) in live.iter().enumerate() {
            for oi in 0..WAVELENGTHS {
                let pos = pos_of[oi * live.len() + li];
                omask[oi] = pos != usize::MAX;
                values[oi] = if omask[oi] { evals[pos].objective } else { 0.0 };
            }
            obj += w * agg.aggregate_masked(&values, &omask);
            agg.weights_into_masked(&values, &omask, &mut sweights);
            let mut seed = Array2::<f64>::zeros(dr, dc);
            for oi in 0..WAVELENGTHS {
                let wk = sweights[oi];
                if wk != 0.0 {
                    let v_rho = grad_eps_to_rho(
                        evals[pos_of[oi * live.len() + li]]
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
                if omask[oi] {
                    observations.push((oi * nf + f, values[oi], sweights[oi]));
                }
            }
            let v_mask = chain.vjp_mask_with_etch(&fwds[li], &seed, etch);
            for (dst, src) in v_fab.as_mut_slice().iter_mut().zip(v_mask.as_slice()) {
                *dst += w * src;
            }
        }
        obj + v_fab[(0, 0)]
    };

    let mut group = c.benchmark_group("subspace_27corner_3wl");
    group.sample_size(10);

    group.bench_function("full_sweep", |b| {
        let mut scratch = EvalScratch::new();
        let mut observations = Vec::new();
        let all = vec![true; columns];
        let mut epoch = 0u64;
        b.iter(|| {
            epoch += 1;
            black_box(iterate(&all, epoch, &mut scratch, &mut observations))
        })
    });

    group.bench_function("adaptive", |b| {
        let mut scratch = EvalScratch::new();
        let mut observations = Vec::new();
        // Steady state: one full-sweep observation warms the EMAs
        // (outside the timed region, where a real run pays it once per
        // refresh epoch), then every timed iteration plans, solves and
        // records a partial schedule.
        let mut scheduler = SubspaceScheduler::new(
            columns,
            SubspaceConfig {
                refresh_every: usize::MAX,
                ..SubspaceConfig::with_active_columns(ACTIVE_M)
            },
        );
        let all = vec![true; columns];
        iterate(&all, 0, &mut scratch, &mut observations);
        for &(ci, obj, wt) in &observations {
            scheduler.record(ci, obj, wt);
        }
        let mut epoch = 0u64;
        b.iter(|| {
            epoch += 1;
            let plan = scheduler.plan(epoch as usize, &forced);
            assert!(!plan.refresh, "timed iterations must be partial");
            let obj = iterate(&plan.active, epoch, &mut scratch, &mut observations);
            for &(ci, o, wt) in &observations {
                scheduler.record(ci, o, wt);
            }
            black_box(obj)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_subspace
}
criterion_main!(benches);
