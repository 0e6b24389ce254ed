//! The traced run: per-layer numbers for one workload, from spans the
//! benchmark records around its own calls into each layer's public
//! functions (no library code is instrumented).
//!
//! 1. An untraced design run at `threads = lanes` (the denominator of
//!    `trace.overhead`; its scores are checked like any run).
//! 2. The same run through [`TracedParam`], a wrapper around the level-set
//!    parameterisation that records when each iteration materialises
//!    `ρ = P(θ)` and back-propagates, and captures every `ρ_k`. The gap
//!    between the end of `forward` and the start of `vjp` is the runner's
//!    evaluation of iteration `k` (`runner.eval_ms`).
//! 3. [`replay`]: every iteration again on the captured `ρ_k`, through the
//!    same public layer calls the runner makes — fabrication chain,
//!    permittivity assembly, single-corner evaluations, the fused
//!    (corner × ω) batch — each wrapped in a span, plus one
//!    `SimWorkspace::factor` of the nominal operator per iteration (a
//!    probe outside the iteration span, for `banded.*`). Then the
//!    post-fabrication Monte-Carlo samples, fabrication and solve timed
//!    apart.
//! 4. Part 2 again at `threads = 1`: its trajectory must match part 2 bit
//!    for bit (the pool's determinism guarantee), and its time over part
//!    2's is `pool.speedup`.
//!
//! Spans stay in memory and are written to `.bench_trace/` at the end.

use crate::stats::{median, self_time, union_len};
use crate::workload::{Setup, Workload, MC_SAMPLES};
use crate::{metric as m, Report};
use boson_core::compiled::{CornerProductSolve, CornerSolve, EvalScratch, Evaluation};
use boson_core::fabchain::{assemble_eps, grad_eps_to_rho, grad_temperature};
use boson_core::objective::ObjectiveSpec;
use boson_core::pool::WorkerPool;
use boson_core::runner::{RunResult, RunnerConfig, SeedableParam};
use boson_core::schedule::BetaSchedule;
use boson_core::subspace::SubspaceScheduler;
use boson_fab::temperature::T_NOMINAL;
use boson_fab::{EtchProjection, VariationCorner};
use boson_fdfd::sim::{CornerSolveReport, SimWorkspace, SolverStrategy};
use boson_num::stats::Summary;
use boson_num::Array2;
use boson_param::{LevelSetParam, Parameterization};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::io::Write;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Instant;

/// The layer a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// `FabChain::forward_with_etch` + `assemble_eps`.
    FabForward,
    /// `grad_eps_to_rho` + `FabChain::vjp_mask_with_etch` (+ the
    /// worst-case search's `grad_temperature` / `vjp_xi_with_etch`).
    FabVjp,
    /// A single-corner `CompiledProblem::evaluate_eps_*` call.
    CompiledDirect,
    /// `CompiledProblem::evaluate_corner_product`.
    CompiledFused,
    /// The `SimWorkspace::factor` probe.
    BandedFactor,
    /// Post-fab sample: `FabChain::forward(…, true)` + `assemble_eps`.
    EvalFab,
    /// Post-fab sample: `CompiledProblem::evaluate_eps`.
    EvalSolve,
    /// One replayed iteration (parent of the layer spans).
    ReplayIteration,
    /// `Parameterization::forward` inside the runner.
    ParamForward,
    /// `Parameterization::vjp` inside the runner.
    ParamVjp,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::FabForward => "fabchain.forward",
            Layer::FabVjp => "fabchain.vjp",
            Layer::CompiledDirect => "compiled.direct",
            Layer::CompiledFused => "compiled.fused",
            Layer::BandedFactor => "banded.factor",
            Layer::EvalFab => "eval.fab",
            Layer::EvalSolve => "eval.solve",
            Layer::ReplayIteration => "replay.iteration",
            Layer::ParamForward => "param.forward",
            Layer::ParamVjp => "param.vjp",
        }
    }
}

/// One timed interval, in seconds since the run's [`Clock`] epoch.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start: f64,
    end: f64,
}

impl Span {
    fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// The shared epoch every span is measured from (copied into workers).
#[derive(Debug, Clone, Copy)]
struct Clock(Instant);

impl Clock {
    fn now(self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span of `layer`.
    fn time<R>(self, layer: Layer, spans: &mut Vec<Span>, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let r = f();
        spans.push(Span {
            layer,
            start,
            end: self.now(),
        });
        r
    }
}

/// What [`TracedParam`] saw: one span per `forward`/`vjp` call and every
/// materialised density.
#[derive(Debug, Default)]
struct ParamLog {
    forward: Vec<Span>,
    vjp: Vec<Span>,
    rho: Vec<Array2<f64>>,
}

/// One `forward`/`vjp` call seen by [`TracedParam`].
enum ParamEvent {
    Forward(Span, Array2<f64>),
    Vjp(Span),
}

/// The level-set parameterisation with per-call spans and `ρ` capture.
/// Calls are reported over a channel: the runner shares the wrapper by
/// reference with its worker lanes, and the repository's sync-primitive
/// rule keeps raw locks inside the pool facade.
struct TracedParam<'a> {
    inner: &'a LevelSetParam,
    clock: Clock,
    events: Sender<ParamEvent>,
}

impl Parameterization for TracedParam<'_> {
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }

    fn design_shape(&self) -> (usize, usize) {
        self.inner.design_shape()
    }

    fn forward(&self, theta: &[f64]) -> Array2<f64> {
        let start = self.clock.now();
        let rho = self.inner.forward(theta);
        let span = Span {
            layer: Layer::ParamForward,
            start,
            end: self.clock.now(),
        };
        self.events
            .send(ParamEvent::Forward(span, rho.clone()))
            .expect("param log receiver outlives the run");
        rho
    }

    fn vjp(&self, theta: &[f64], v: &Array2<f64>) -> Vec<f64> {
        let start = self.clock.now();
        let g = self.inner.vjp(theta, v);
        let span = Span {
            layer: Layer::ParamVjp,
            start,
            end: self.clock.now(),
        };
        self.events
            .send(ParamEvent::Vjp(span))
            .expect("param log receiver outlives the run");
        g
    }
}

impl SeedableParam for TracedParam<'_> {
    fn theta_from_geometry(&self, geometry: &boson_param::sdf::Geometry) -> Vec<f64> {
        self.inner.theta_from_geometry(geometry)
    }
}

/// Solver counters summed from `CornerSolveReport`s, one report per
/// (corner, ω) column of the product.
#[derive(Debug, Default)]
struct KrylovTally {
    /// BiCGSTAB iterations.
    iterations: usize,
    /// Columns whose iterative solve missed its budget and fell back.
    fallbacks: usize,
    /// Columns attempted iteratively.
    attempted: usize,
    /// Columns attempted iteratively that converged without fallback.
    useful: usize,
}

impl KrylovTally {
    fn add(&mut self, report: &CornerSolveReport) {
        if report.fell_back {
            self.fallbacks += 1;
        }
        if report.used_iterative {
            self.attempted += 1;
            self.iterations += report.total_iterations;
            if !report.fell_back {
                self.useful += 1;
            }
        }
    }
}

/// Everything the replay measured.
#[derive(Debug, Default)]
struct ReplayTally {
    spans: Vec<Span>,
    /// Per replayed iteration: its parent span and the range of `spans`
    /// recorded inside it.
    iterations: Vec<(Span, std::ops::Range<usize>)>,
    fab_calls: usize,
    direct_calls: usize,
    fused_calls: usize,
    fused_columns: usize,
    krylov: KrylovTally,
}

/// The runner's adaptive policy, replayed: stable corners (no spatial
/// field) that ever fell back are pinned to the direct path.
#[derive(Debug, Default)]
struct Pins(HashSet<String>);

impl Pins {
    fn force_direct(&self, corner: &VariationCorner) -> bool {
        corner.xi.is_empty() && self.0.contains(&corner.label)
    }

    fn observe(&mut self, corner: &VariationCorner, report: &CornerSolveReport) {
        if report.fell_back && corner.xi.is_empty() {
            self.0.insert(corner.label.clone());
        }
    }
}

/// The result of one single-corner evaluation in the replay.
struct CornerOut {
    report: CornerSolveReport,
    variation_grads: Option<(f64, Vec<f64>)>,
}

/// One corner as the runner evaluates it: fabrication forward, EM
/// forward + adjoint through the single-corner entry point, chain
/// backward (and the worst-case search's variation gradients on request).
#[allow(clippy::too_many_arguments)] // mirrors the runner's eval_corner
fn eval_corner(
    setup: &Setup,
    objective: &ObjectiveSpec,
    clock: Clock,
    spans: &mut Vec<Span>,
    rho: &Array2<f64>,
    corner: &VariationCorner,
    etch: EtchProjection,
    want_variation_grads: bool,
    scratch: &mut EvalScratch,
    solve: Option<&CornerSolve<'_>>,
) -> CornerOut {
    let problem = setup.compiled.problem();
    let (fwd, eps) = clock.time(Layer::FabForward, spans, || {
        let fwd = setup.chain.forward_with_etch(rho, corner, false, etch);
        let eps = assemble_eps(
            &problem.background_solid,
            problem.design_origin,
            &fwd.rho_fab,
            corner.temperature,
        );
        (fwd, eps)
    });
    let ev: Evaluation = clock
        .time(Layer::CompiledDirect, spans, || match solve {
            Some(cs) => {
                setup
                    .compiled
                    .evaluate_eps_corner(&eps, true, objective, scratch, Some(cs))
            }
            None => {
                setup
                    .compiled
                    .evaluate_eps_omega(&eps, true, objective, scratch, corner.omega_idx)
            }
        })
        .expect("corner simulation failed");
    let variation_grads = clock.time(Layer::FabVjp, spans, || {
        let grad_eps = ev.grad_eps.as_ref().expect("gradient requested");
        let v_rho = grad_eps_to_rho(
            grad_eps,
            problem.design_origin,
            problem.design_shape,
            corner.temperature,
        );
        std::hint::black_box(setup.chain.vjp_mask_with_etch(&fwd, &v_rho, etch));
        want_variation_grads.then(|| {
            let dt = grad_temperature(
                grad_eps,
                &problem.background_solid,
                problem.design_origin,
                &fwd.rho_fab,
                corner.temperature,
            );
            (dt, setup.chain.vjp_xi_with_etch(&fwd, &v_rho, etch))
        })
    });
    CornerOut {
        report: ev.solve,
        variation_grads,
    }
}

/// A direct-strategy corner job for the replay's corner pool.
struct CornerJob {
    rho: Arc<Array2<f64>>,
    corner: VariationCorner,
    etch: EtchProjection,
    want_variation_grads: bool,
}

/// A finished corner job: its outcome and the spans it recorded on its
/// lane.
type CornerResult = (CornerOut, Vec<Span>);

/// Replays every iteration of a design run on its captured densities
/// `rhos[k]` (see the module docs, part 3).
fn replay(setup: &Setup, cfg: &RunnerConfig, rhos: &[Array2<f64>], clock: Clock) -> ReplayTally {
    let compiled = &setup.compiled;
    let problem = compiled.problem();
    let objective = if cfg.dense_objectives {
        problem.objective.clone()
    } else {
        problem.objective.sparse()
    };
    let nexc = problem.excitations.len();
    let k = compiled.omega_count();
    let nominal_oi = compiled.nominal_omega_idx();
    let lambda_c = 2.0 * std::f64::consts::PI / problem.omega;
    let betas = BetaSchedule::new(cfg.beta_start, cfg.beta_end, cfg.iterations.max(1));
    let direct = cfg.solver == SolverStrategy::Direct;

    let mut t = ReplayTally::default();
    let mut scratch = EvalScratch::new();
    scratch.configure_recycling(&cfg.recycle);
    let mut pins = Pins::default();
    let mut subspace = cfg
        .subspace
        .is_enabled()
        .then(|| SubspaceScheduler::new(setup.space.product_columns(cfg.sampling), cfg.subspace));
    let mut probe = SimWorkspace::new();
    let omega_c = compiled.omegas()[nominal_oi];

    // The direct strategy's corner fan-out, shaped like the runner's.
    let pool_threads = cfg.threads.min(cfg.sampling.corners_per_iteration());
    let objective_ref = &objective;
    let mut pool: Option<WorkerPool<'_, CornerJob, CornerResult>> = (direct && pool_threads > 1)
        .then(|| {
            WorkerPool::new(pool_threads, |_| {
                let mut scratch = EvalScratch::new();
                move |job: CornerJob| {
                    let mut spans = Vec::new();
                    let out = eval_corner(
                        setup,
                        objective_ref,
                        clock,
                        &mut spans,
                        &job.rho,
                        &job.corner,
                        job.etch,
                        job.want_variation_grads,
                        &mut scratch,
                        None,
                    );
                    (out, spans)
                }
            })
        });

    for (iter, rho) in rhos.iter().enumerate().take(cfg.iterations) {
        let etch = EtchProjection::new(betas.beta(iter));
        let p = cfg.relaxation.p(iter);
        let first_span = t.spans.len();
        let iter_start = clock.now();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (iter as u64).wrapping_mul(0x9E37));
        let corners = setup
            .space
            .spectral_corners(cfg.sampling, lambda_c, &mut rng);
        let f_count = corners.len() / k;

        // Fan-out: per-corner direct jobs, or the fused product.
        let (nominal_grads, nominal_eps) = if direct {
            let nominal_idx = corners
                .iter()
                .position(|c| !c.is_varied() && c.omega_idx == nominal_oi);
            t.fab_calls += corners.len();
            t.direct_calls += corners.len();
            let outs: Vec<CornerOut> = match pool.as_mut() {
                Some(pool) if corners.len() > 1 => {
                    let rho = Arc::new(rho.clone());
                    for (ci, corner) in corners.iter().enumerate() {
                        pool.submit(CornerJob {
                            rho: Arc::clone(&rho),
                            corner: corner.clone(),
                            etch,
                            want_variation_grads: Some(ci) == nominal_idx,
                        });
                    }
                    // Results come back in submission order.
                    (0..corners.len())
                        .map(|_| {
                            let (out, spans) = pool.recv();
                            t.spans.extend(spans);
                            out
                        })
                        .collect()
                }
                _ => corners
                    .iter()
                    .enumerate()
                    .map(|(ci, corner)| {
                        eval_corner(
                            setup,
                            &objective,
                            clock,
                            &mut t.spans,
                            rho,
                            corner,
                            etch,
                            Some(ci) == nominal_idx,
                            &mut scratch,
                            None,
                        )
                    })
                    .collect(),
            };
            for o in &outs {
                t.krylov.add(&o.report);
            }
            let grads = nominal_idx.and_then(|ni| outs[ni].variation_grads.clone());
            (grads, None)
        } else {
            let nominal_eps = clock.time(Layer::FabForward, &mut t.spans, || {
                let fwd =
                    setup
                        .chain
                        .forward_with_etch(rho, &VariationCorner::nominal(), false, etch);
                assemble_eps(
                    &problem.background_solid,
                    problem.design_origin,
                    &fwd.rho_fab,
                    T_NOMINAL,
                )
            });
            t.fab_calls += 1;
            let active: Vec<bool> = match subspace.as_ref() {
                Some(s) => {
                    let forced: Vec<bool> = corners.iter().map(|c| !c.is_varied()).collect();
                    s.plan(iter, &forced).active
                }
                None => vec![true; corners.len()],
            };
            let fab = &corners[..f_count];
            let live: Vec<usize> = (0..f_count)
                .filter(|&f| (0..k).any(|oi| active[oi * f_count + f]))
                .collect();
            let (fwds, epss_live): (Vec<_>, Vec<_>) = live
                .iter()
                .map(|&f| {
                    clock.time(Layer::FabForward, &mut t.spans, || {
                        let fwd = setup.chain.forward_with_etch(rho, &fab[f], false, etch);
                        let eps = assemble_eps(
                            &problem.background_solid,
                            problem.design_origin,
                            &fwd.rho_fab,
                            fab[f].temperature,
                        );
                        (fwd, eps)
                    })
                })
                .unzip();
            t.fab_calls += live.len();
            let mut sel: Vec<(usize, usize)> = Vec::new();
            let mut pos_of = vec![usize::MAX; k * live.len()];
            for oi in 0..k {
                for (li, &f) in live.iter().enumerate() {
                    let ci = oi * f_count + f;
                    if active[ci] {
                        pos_of[oi * live.len() + li] = sel.len();
                        sel.push((ci, li));
                    }
                }
            }
            let epss: Vec<Array2<f64>> = sel.iter().map(|&(_, li)| epss_live[li].clone()).collect();
            let force_direct: Vec<bool> = sel
                .iter()
                .map(|&(ci, _)| pins.force_direct(&corners[ci]))
                .collect();
            let omega_idx: Vec<usize> = sel.iter().map(|&(ci, _)| corners[ci].omega_idx).collect();
            let is_nominal: Vec<bool> = sel
                .iter()
                .map(|&(ci, _)| !corners[ci].is_varied())
                .collect();
            let fab_idx: Vec<usize> = sel.iter().map(|&(_, li)| li).collect();
            let global_cols: Vec<usize> = sel.iter().map(|&(ci, _)| ci).collect();
            let batched = (0..sel.len())
                .filter(|&i| !is_nominal[i] && !force_direct[i])
                .count();
            t.fused_calls += 1;
            t.fused_columns += batched * nexc;
            let set = CornerProductSolve {
                strategy: cfg.solver,
                nominal_eps: &nominal_eps,
                epoch: iter as u64,
                omega_idx: &omega_idx,
                is_nominal: &is_nominal,
                force_direct: &force_direct,
                threads: cfg.threads,
                skip_zero_weight_adjoints: Some((cfg.spectral_agg, &fab_idx)),
                recycle: (cfg.recycle.directions > 0).then_some(global_cols.as_slice()),
            };
            let evals = clock
                .time(Layer::CompiledFused, &mut t.spans, || {
                    compiled.evaluate_corner_product(&epss, true, &objective, &mut scratch, &set)
                })
                .expect("corner sweep failed");
            for (&(ci, _), ev) in sel.iter().zip(&evals) {
                t.krylov.add(&ev.solve);
                pins.observe(&corners[ci], &ev.solve);
            }

            // The spectral fold and one chain backward per live corner.
            let (dr, dc) = problem.design_shape;
            let fab_nominal = live.iter().position(|&f| !fab[f].is_varied());
            let mut values = vec![0.0; k];
            let mut omask = vec![false; k];
            let mut weights = vec![0.0; k];
            let mut observations = Vec::new();
            let mut nominal_grads = None;
            for (li, &f) in live.iter().enumerate() {
                for oi in 0..k {
                    let pos = pos_of[oi * live.len() + li];
                    omask[oi] = pos != usize::MAX;
                    values[oi] = if omask[oi] { evals[pos].objective } else { 0.0 };
                }
                cfg.spectral_agg
                    .weights_into_masked(&values, &omask, &mut weights);
                clock.time(Layer::FabVjp, &mut t.spans, || {
                    let mut seed = Array2::<f64>::zeros(dr, dc);
                    for oi in 0..k {
                        let mut gnorm = f64::NAN;
                        if weights[oi] != 0.0 {
                            let grad = evals[pos_of[oi * live.len() + li]]
                                .grad_eps
                                .as_ref()
                                .expect("weighted entry carries a gradient");
                            let v_rho = grad_eps_to_rho(
                                grad,
                                problem.design_origin,
                                problem.design_shape,
                                fab[f].temperature,
                            );
                            gnorm = v_rho.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt();
                            for (d, s) in seed.as_mut_slice().iter_mut().zip(v_rho.as_slice()) {
                                *d += weights[oi] * s;
                            }
                        }
                        if omask[oi] {
                            observations.push((oi * f_count + f, values[oi], weights[oi], gnorm));
                        }
                    }
                    std::hint::black_box(setup.chain.vjp_mask_with_etch(&fwds[li], &seed, etch));
                    if Some(li) == fab_nominal {
                        let centre = pos_of[nominal_oi * live.len() + li];
                        let grad_eps = evals[centre].grad_eps.as_ref().expect("nominal gradient");
                        let dt = grad_temperature(
                            grad_eps,
                            &problem.background_solid,
                            problem.design_origin,
                            &fwds[li].rho_fab,
                            fab[f].temperature,
                        );
                        let v_rho = grad_eps_to_rho(
                            grad_eps,
                            problem.design_origin,
                            problem.design_shape,
                            fab[f].temperature,
                        );
                        let dxi = setup.chain.vjp_xi_with_etch(&fwds[li], &v_rho, etch);
                        nominal_grads = Some((dt, dxi));
                    }
                });
            }
            if let Some(s) = subspace.as_mut() {
                for &(ci, obj, w, g) in &observations {
                    s.record(ci, obj, w);
                    if g.is_finite() {
                        s.record_gradient(ci, g);
                    }
                }
            }
            (nominal_grads, Some(nominal_eps))
        };

        // The worst-case corner, on the main scratch.
        if cfg.sampling.needs_worst_case() {
            if let Some((dt, dxi)) = &nominal_grads {
                let mut worst = setup.space.worst_case_corner(*dt, dxi);
                worst.omega_idx = nominal_oi;
                let solve = nominal_eps.as_ref().map(|nominal_eps| CornerSolve {
                    strategy: cfg.solver,
                    nominal_eps,
                    epoch: iter as u64,
                    is_nominal: false,
                    force_direct: pins.force_direct(&worst),
                    omega_idx: worst.omega_idx,
                });
                let out = eval_corner(
                    setup,
                    &objective,
                    clock,
                    &mut t.spans,
                    rho,
                    &worst,
                    etch,
                    false,
                    &mut scratch,
                    solve.as_ref(),
                );
                t.fab_calls += 1;
                t.direct_calls += 1;
                t.krylov.add(&out.report);
                pins.observe(&worst, &out.report);
            }
        }

        // The unrestricted ("free") term while the relaxation lasts.
        if p < 1.0 {
            clock.time(Layer::CompiledDirect, &mut t.spans, || {
                let eps = assemble_eps(
                    &problem.background_solid,
                    problem.design_origin,
                    rho,
                    T_NOMINAL,
                );
                let ev = compiled
                    .evaluate_eps_scratch(&eps, true, &objective, &mut scratch)
                    .expect("free simulation failed");
                std::hint::black_box(grad_eps_to_rho(
                    ev.grad_eps.as_ref().expect("gradient requested"),
                    problem.design_origin,
                    problem.design_shape,
                    T_NOMINAL,
                ));
            });
            t.direct_calls += 1;
        }
        let parent = Span {
            layer: Layer::ReplayIteration,
            start: iter_start,
            end: clock.now(),
        };
        t.iterations.push((parent, first_span..t.spans.len()));

        // The banded-factor probe: one nominal-operator factorisation.
        let eps = nominal_eps.unwrap_or_else(|| {
            let fwd = setup
                .chain
                .forward_with_etch(rho, &VariationCorner::nominal(), false, etch);
            assemble_eps(
                &problem.background_solid,
                problem.design_origin,
                &fwd.rho_fab,
                T_NOMINAL,
            )
        });
        clock
            .time(Layer::BandedFactor, &mut t.spans, || {
                probe.factor(problem.grid, omega_c, &eps)
            })
            .expect("nominal operator is singular");
    }
    t
}

/// Post-fab replay: the Monte-Carlo loop of `evaluate_post_fab`, with
/// fabrication and solve in separate spans. Returns the oriented score.
fn replay_post_fab(
    setup: &Setup,
    mask: &Array2<f64>,
    mc_seed: u64,
    clock: Clock,
    spans: &mut Vec<Span>,
) -> f64 {
    let compiled = &setup.compiled;
    let problem = compiled.problem();
    let binary = boson_core::eval::binarize_mask(mask);
    let mut rng = StdRng::seed_from_u64(mc_seed);
    let mut foms = Vec::with_capacity(MC_SAMPLES);
    for _ in 0..MC_SAMPLES {
        let corner = setup.space.sample_random(&mut rng);
        let eps = clock.time(Layer::EvalFab, spans, || {
            let fwd = setup.chain.forward(&binary, &corner, true);
            assemble_eps(
                &problem.background_solid,
                problem.design_origin,
                &fwd.rho_fab,
                corner.temperature,
            )
        });
        let ev = clock
            .time(Layer::EvalSolve, spans, || {
                compiled.evaluate_eps(&eps, false)
            })
            .expect("MC evaluation failed");
        foms.push(ev.fom);
    }
    crate::stats::oriented_score(
        Summary::from_samples(&foms).mean,
        problem.objective.fom_higher_is_better(),
    )
}

/// A traced design run: the result, its parameterisation log and its
/// wall time.
fn traced_design(
    w: Workload,
    setup: &Setup,
    threads: usize,
    clock: Clock,
) -> (RunResult, ParamLog, f64) {
    let (events, received) = channel();
    let param = TracedParam {
        inner: &setup.param,
        clock,
        events,
    };
    let t = Instant::now();
    let result = crate::design(w, setup, threads, &param);
    let secs = t.elapsed().as_secs_f64();
    drop(param);
    let mut log = ParamLog::default();
    for event in received {
        match event {
            ParamEvent::Forward(span, rho) => {
                log.forward.push(span);
                log.rho.push(rho);
            }
            ParamEvent::Vjp(span) => log.vjp.push(span),
        }
    }
    (result, log, secs)
}

/// Writes every span as one JSON line to `.bench_trace/<workload>-<seed>.jsonl`.
fn write_spans(w: Workload, mc_seed: u64, groups: &[(&str, &[Span])]) {
    let path = format!(".bench_trace/{}-{mc_seed}.jsonl", w.name());
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(".bench_trace")?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (run, spans) in groups {
            for s in *spans {
                writeln!(
                    f,
                    "{{\"run\": \"{run}\", \"span\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}}}",
                    s.layer.name(),
                    s.start,
                    s.end
                )?;
            }
        }
        f.flush()
    };
    if let Err(e) = write() {
        eprintln!("e2ebench: could not write {path}: {e}");
    }
}

/// The traced run of workload `w` (see the module docs). Its length is
/// set by the four parts, not by `--seconds`.
pub fn run_traced(w: Workload, mc_seed: u64) -> Report {
    let lanes = boson_num::pool::global().lanes();
    let clock = Clock(Instant::now());
    let setup = w.setup();
    let cfg = w.config(lanes, crate::RUNNER_SEED);
    let iters = cfg.iterations as f64;
    // One entry per checked operation, holding its failures (if any).
    let mut checks: Vec<Vec<String>> = Vec::new();

    // Part 1: untraced reference run.
    let (plain, plain_design_s, postfab_s) = crate::design_and_evaluate(w, &setup, lanes, mc_seed);
    checks.push(crate::check_run(w, mc_seed, &plain));

    // Part 2: traced run at `lanes`.
    let (run, log, traced_design_s) = traced_design(w, &setup, lanes, clock);
    checks.push(
        (crate::fingerprint(&run) != crate::fingerprint(&plain.result))
            .then(|| "traced run departs from the untraced run".to_string())
            .into_iter()
            .collect(),
    );

    // Part 3: layer replay and post-fab replay.
    let tally = replay(&setup, &cfg, &log.rho, clock);
    let mut eval_spans = Vec::new();
    let score = replay_post_fab(&setup, &run.mask, mc_seed, clock, &mut eval_spans);
    checks.push(
        (!crate::stats::matches_reference(score, plain.postfab_score, crate::SCORE_REL_TOL))
            .then(|| {
                format!(
                    "post-fab replay score {score:?} != evaluate_post_fab {:?}",
                    plain.postfab_score
                )
            })
            .into_iter()
            .collect(),
    );

    // Part 4: lane invariance at threads = 1.
    let (serial, serial_log, serial_design_s) = traced_design(w, &setup, 1, clock);
    checks.push(
        (crate::fingerprint(&serial) != crate::fingerprint(&run))
            .then(|| format!("threads = 1 trajectory differs from threads = {lanes}"))
            .into_iter()
            .collect(),
    );
    for e in checks.iter().flatten() {
        eprintln!("{}: {e}", w.name());
    }

    // Runner-side numbers from the parameterisation spans.
    let n = run.trajectory.len();
    let iter_ms: Vec<f64> = (0..n)
        .map(|i| 1e3 * (log.forward[i + 1].start - log.forward[i].start))
        .collect();
    let eval_gaps: Vec<f64> = (0..n)
        .map(|i| log.vjp[i].start - log.forward[i].end)
        .collect();
    let eval_total: f64 = eval_gaps.iter().sum();
    let param_busy: f64 = log.forward.iter().chain(&log.vjp).map(Span::dur).sum();
    let bicg: Vec<f64> = run
        .trajectory
        .iter()
        .map(|r| r.mean_bicgstab_iterations)
        .filter(|&m| m > 0.0)
        .collect();
    let (active, product) = run
        .trajectory
        .iter()
        .filter_map(|r| r.active_set)
        .fold((0, 0), |(a, p), s| {
            (a + s.active_columns, p + s.product_columns)
        });

    // Layer numbers from the replay spans.
    let busy = |layer: Layer, spans: &[Span]| -> f64 {
        spans
            .iter()
            .filter(|s| s.layer == layer)
            .fold(0.0, |acc, s| acc + s.dur())
    };
    let per_iter_ms = |layer: Layer| 1e3 * busy(layer, &tally.spans) / iters;
    let factor_ms: Vec<f64> = tally
        .spans
        .iter()
        .filter(|s| s.layer == Layer::BandedFactor)
        .map(|s| 1e3 * s.dur())
        .collect();
    let factor_ms = median(&factor_ms);
    // Computed, not measured: the banded LU of an n-unknown operator with
    // half-bandwidth b = nx does n·b² complex multiply-adds, and its band
    // storage holds (3b + 1) complex128 entries per row.
    let grid = setup.compiled.problem().grid;
    let (cells, b) = (grid.n() as f64, grid.nx as f64);
    let factor_ops = cells * b * b;
    let factor_mb = cells * (3.0 * b + 1.0) * 16.0 / 1e6;
    let mut covered = 0.0;
    let mut glue = 0.0;
    for (parent, range) in &tally.iterations {
        let children: Vec<(f64, f64)> = tally.spans[range.clone()]
            .iter()
            .map(|s| (s.start, s.end))
            .collect();
        glue += self_time((parent.start, parent.end), &children);
        covered += union_len(&children);
    }
    eprintln!(
        "{}: replay glue (self time of replayed iterations) {:.1} ms/iter",
        w.name(),
        1e3 * glue / iters
    );
    let samples = MC_SAMPLES as f64;
    let ratio = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    let iteration_spans: Vec<Span> = tally.iterations.iter().map(|(s, _)| *s).collect();
    write_spans(
        w,
        mc_seed,
        &[
            ("design", &log.forward),
            ("design", &log.vjp),
            ("replay", &iteration_spans),
            ("replay", &tally.spans),
            ("postfab", &eval_spans),
            ("design-threads-1", &serial_log.forward),
            ("design-threads-1", &serial_log.vjp),
        ],
    );

    Report {
        attempted: checks.len(),
        failed: checks.iter().filter(|c| !c.is_empty()).count(),
        metrics: vec![
            m("runner.iter_ms_p50", median(&iter_ms), "ms"),
            m("runner.eval_ms", 1e3 * eval_total / iters, "ms"),
            m("runner.factorizations", run.factorizations as f64, "count"),
            m(
                "runner.bicgstab_per_solve",
                if bicg.is_empty() {
                    0.0
                } else {
                    bicg.iter().sum::<f64>() / bicg.len() as f64
                },
                "count",
            ),
            m("param.busy_ms", 1e3 * param_busy / iters, "ms"),
            m("fabchain.forward_ms", per_iter_ms(Layer::FabForward), "ms"),
            m("fabchain.vjp_ms", per_iter_ms(Layer::FabVjp), "ms"),
            m("fabchain.calls", tally.fab_calls as f64, "count"),
            m(
                "compiled.direct_ms",
                per_iter_ms(Layer::CompiledDirect),
                "ms",
            ),
            m("compiled.direct_calls", tally.direct_calls as f64, "count"),
            m("compiled.fused_ms", per_iter_ms(Layer::CompiledFused), "ms"),
            m(
                "compiled.fused_columns",
                ratio(tally.fused_columns, tally.fused_calls),
                "count",
            ),
            m("banded.factor_ms", factor_ms, "ms"),
            m(
                "banded.factor_gflops",
                factor_ops / (factor_ms * 1e-3) / 1e9,
                "Gop/s",
            ),
            m("banded.factor_mb", factor_mb, "MB"),
            m("krylov.iterations", tally.krylov.iterations as f64, "count"),
            m("krylov.fallbacks", tally.krylov.fallbacks as f64, "count"),
            m(
                "krylov.useful_ratio",
                ratio(tally.krylov.useful, tally.krylov.attempted),
                "ratio",
            ),
            m("subspace.active_ratio", ratio(active, product), "ratio"),
            m("postfab_s", postfab_s, "s"),
            m(
                "eval.fab_ms",
                1e3 * busy(Layer::EvalFab, &eval_spans) / samples,
                "ms",
            ),
            m(
                "eval.solve_ms",
                1e3 * busy(Layer::EvalSolve, &eval_spans) / samples,
                "ms",
            ),
            m("pool.lanes", lanes as f64, "count"),
            m("pool.speedup", serial_design_s / traced_design_s, "ratio"),
            m("trace.coverage", covered / eval_total, "ratio"),
            m("trace.overhead", traced_design_s / plain_design_s, "ratio"),
        ],
    }
}
