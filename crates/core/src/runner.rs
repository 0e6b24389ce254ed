//! The BOSON-1 optimisation loop.
//!
//! One iteration of the full method:
//!
//! 1. materialise the density `ρ = P(θ)`;
//! 2. draw the variation corners (axial set; plus a worst-case corner
//!    from one gradient-ascent step on `(T, ξ)` at the nominal corner);
//! 3. for every corner, run the fabrication model and the FDFD forward +
//!    adjoint simulations, chaining the field gradient back through
//!    etch → litho → `ρ`;
//! 4. blend the fab-aware gradient with the unrestricted "tunnel"
//!    gradient according to the relaxation schedule `p`;
//! 5. back-propagate through the parameterisation and take an Adam step.
//!
//! Step 3 has one shape for every [`SolverStrategy`]: the (fabrication
//! corner × ω) cross product — or the adaptive subspace scheduler's
//! active part of it — goes through
//! [`CompiledProblem::evaluate_corner_product`], and the results fold
//! back to one outcome per live fabrication corner. Under
//! [`SolverStrategy::Direct`] the direct columns, the fabrication
//! forwards and the folded chain VJPs all fan out over `threads` lanes of
//! the process-lifetime `boson_num::pool` substrate; under the iterative
//! strategies the fused lockstep batch is the parallelism. Each lane
//! keeps its own [`EvalScratch`] for the whole run, so the steady-state
//! solve path allocates no solver buffers and spawns no threads. Every
//! decomposition is per corner or per column, so any lane count is
//! bit-identical. The β sharpening schedule is threaded through as an
//! explicit [`EtchProjection`] parameter instead of mutating the shared
//! [`FabChain`].
//!
//! Baselines reuse the same loop with features disabled (`fab_aware =
//! false`, sparse objective, nominal-only sampling, random init …), which
//! is exactly how the paper's ablation table is generated.

use crate::compiled::{
    CompiledProblem, CornerProductSolve, CornerSolve, EvalScratch, Evaluation, RecycleConfig,
};
use crate::fabchain::{assemble_eps, grad_eps_to_rho, grad_temperature, FabChain, FabForward};
use crate::objective::{ObjectiveSpec, Readings, SpectralAggregation};
use crate::optimizer::{Adam, AdamConfig};
use crate::schedule::{BetaSchedule, RelaxationSchedule};
use crate::subspace::{ActiveSetRecord, SubspaceConfig, SubspaceScheduler, SweepPlan};
use boson_fab::{EtchProjection, SamplingStrategy, VariationCorner, VariationSpace};
use boson_fdfd::sim::SolverStrategy;
use boson_num::pool;
use boson_num::Array2;
use boson_param::Parameterization;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// How to initialise the latent variables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InitKind {
    /// Light-concentrated seed from the problem's geometry (§III-D3).
    Seeded,
    /// Uniform random in `[-amplitude, amplitude]` — the ablation's
    /// "random init".
    Random {
        /// Half-width of the uniform distribution.
        amplitude: f64,
    },
}

/// Full runner configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunnerConfig {
    /// Optimisation iterations.
    pub iterations: usize,
    /// Adam hyper-parameters.
    pub adam: AdamConfig,
    /// Variation sampling strategy.
    pub sampling: SamplingStrategy,
    /// Conditional subspace relaxation schedule.
    pub relaxation: RelaxationSchedule,
    /// Etch-projection sharpening (start, end β).
    pub beta_start: f64,
    /// Final β of the sharpening schedule.
    pub beta_end: f64,
    /// Keep the dense auxiliary objectives? (`false` = sparse baseline.)
    pub dense_objectives: bool,
    /// Optimise through the fabrication model? (`false` = free-space
    /// baseline à la Density/LS.)
    pub fab_aware: bool,
    /// Initialisation.
    pub init: InitKind,
    /// RNG seed (corner draws, random init).
    pub seed: u64,
    /// Worker-lane budget for the parallel stages: under
    /// [`SolverStrategy::Direct`] the direct columns, fabrication
    /// forwards and chain VJPs of each iteration; under the iterative
    /// strategies the split fused preconditioner sweeps. Defaults to
    /// [`boson_num::pool::default_threads`]: the `BOSON_THREADS`
    /// environment override when set, the host's available parallelism
    /// otherwise — an invalid `BOSON_THREADS` value fails **loudly**
    /// (panic at config construction) rather than silently running
    /// serial; see [`boson_num::pool::env_threads`]. Worker count never
    /// changes results: every parallel decomposition in the stack is
    /// bit-identical at any thread count.
    pub threads: usize,
    /// Corner linear-solver strategy: direct per-corner factorisation or
    /// nominal-factor-preconditioned iteration with adaptive fallback.
    pub solver: SolverStrategy,
    /// How the per-wavelength objectives of one fabrication corner
    /// combine when the variation space carries `K > 1` wavelengths
    /// (a `K = 1` space makes both choices identical).
    pub spectral_agg: SpectralAggregation,
    /// Adaptive corner-subspace scheduling (see [`crate::subspace`]):
    /// when enabled, each robust iteration evaluates only the top-M
    /// importance-ranked (corner, ω) columns of the cross product, with
    /// periodic full-sweep refresh epochs. Disabled by default (every
    /// iteration sweeps the full product). Works under every solver
    /// strategy: a partial product is just fewer columns for
    /// [`CompiledProblem::evaluate_corner_product`].
    pub subspace: SubspaceConfig,
    /// Cross-iteration solver acceleration (see
    /// [`crate::compiled::RecycleConfig`]): per-(corner, ω) Krylov
    /// deflation stores recycled across epochs plus lagged
    /// drift-monitored nominal factors. Disabled by default —
    /// bit-identical to the eager pipeline. Only the
    /// preconditioned-iterative strategies use it
    /// ([`SolverStrategy::Direct`] has no shared factors and no iterative
    /// columns to recycle).
    pub recycle: RecycleConfig,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            iterations: 40,
            adam: AdamConfig::default(),
            sampling: SamplingStrategy::AxialPlusWorst,
            relaxation: RelaxationSchedule::over(20),
            beta_start: 10.0,
            beta_end: 40.0,
            dense_objectives: true,
            fab_aware: true,
            init: InitKind::Seeded,
            seed: 7,
            threads: pool::default_threads(),
            solver: SolverStrategy::Direct,
            spectral_agg: SpectralAggregation::Mean,
            subspace: SubspaceConfig::default(),
            recycle: RecycleConfig::default(),
        }
    }
}

/// One trajectory sample (Fig. 5 data).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Iteration index.
    pub iter: usize,
    /// Combined (robust) objective value.
    pub objective: f64,
    /// Nominal-corner figure of merit.
    pub fom_nominal: f64,
    /// Nominal-corner readings (fab-aware when available, otherwise the
    /// unrestricted model's own view).
    pub readings_nominal: Readings,
    /// Relaxation weight `p` used this iteration.
    pub p: f64,
    /// Active-set telemetry of the adaptive corner-subspace scheduler:
    /// how many (corner, ω) columns this iteration evaluated, out of how
    /// many, and whether it was a full-sweep refresh epoch. `None` when
    /// the scheduler is disabled (or the run is not fabrication-aware).
    pub active_set: Option<ActiveSetRecord>,
    /// Linear-system factorisations this iteration performed (nominal
    /// refreshes, direct corners, fallbacks, the free term). The
    /// observable the lagged-nominal-factor policy is judged by: with
    /// lag armed, steady-state iterations refactor only on drift/age
    /// trips instead of once per ω per epoch.
    pub factorizations: usize,
    /// Mean BiCGSTAB iterations per iterative right-hand side across the
    /// corner fan-out (`0.0` when no iterative solves ran). The
    /// observable cross-iteration Krylov recycling is judged by.
    pub mean_bicgstab_iterations: f64,
    /// The objective or a gradient entry was non-finite, so this
    /// iteration did not step: θ and the optimiser state are unchanged.
    pub step_skipped: bool,
}

/// Result of an optimisation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Final latent variables.
    pub theta: Vec<f64>,
    /// Final mask `ρ = P(θ)` (continuous, pre-binarisation).
    pub mask: Array2<f64>,
    /// Per-iteration trace.
    pub trajectory: Vec<IterationRecord>,
    /// Total linear-system factorisations (simulation cost proxy).
    pub factorizations: usize,
}

/// One fabrication corner's evaluation, its wavelengths folded by the
/// spectral aggregation.
struct CornerOutcome {
    objective: f64,
    fom: f64,
    readings: Readings,
    v_mask: Array2<f64>,
    /// `(d obj/dT, d obj/dξ)` — only filled for the nominal corner.
    variation_grads: Option<(f64, Vec<f64>)>,
    /// Factorisations this corner actually performed.
    factorizations: usize,
    /// Summed BiCGSTAB iterations of this corner's iterative solves.
    bicgstab_iterations: usize,
    /// Right-hand sides this corner solved through the iterative path
    /// (0 for purely direct corners) — the denominator of the mean.
    bicgstab_solves: usize,
}

/// One evaluated column's `(global column index, objective, spectral
/// weight, gradient norm)` — the subspace scheduler's EMA feed.
type Observation = (usize, f64, f64, f64);

/// One iteration's corner sweep (see [`InverseDesigner::eval_sweep`]).
struct Sweep {
    /// One ω-folded outcome per live fabrication corner, in corner order.
    outcomes: Vec<CornerOutcome>,
    /// Position of the fabrication-nominal corner among `outcomes`.
    nominal: usize,
    /// The fabrication-nominal corner's permittivity: the operator the
    /// iterative strategies precondition with this epoch.
    nominal_eps: Array2<f64>,
}

/// The adaptive per-corner solver policy: the labels of the corners
/// whose iterative solve ever missed its budget, pinned to the direct
/// path for the rest of the run. It is local state of one run, like the
/// subspace scheduler: read before and updated after each sweep on the
/// calling thread, and touched by no pool part.
///
/// Decisions are cached only for *stable* corners (empty `ξ`) — the
/// axial/sweep excursions, whose label names the same perturbation every
/// iteration. Worst-case and random corners carry a fresh EOLE field `ξ`
/// each iteration, so a past budget miss says nothing about the next draw
/// and they always retry the iterative path (falling back individually
/// when needed).
#[derive(Debug, Default)]
struct CornerPolicy(HashSet<String>);

impl CornerPolicy {
    fn force_direct(&self, corner: &VariationCorner) -> bool {
        corner.xi.is_empty() && self.0.contains(&corner.label)
    }

    fn mark_direct(&mut self, corner: &VariationCorner) {
        if corner.xi.is_empty() {
            self.0.insert(corner.label.clone());
        }
    }
}

/// The optimisation driver.
pub struct InverseDesigner<'a, P: Parameterization + Sync> {
    compiled: &'a CompiledProblem,
    param: &'a P,
    chain: FabChain,
    space: VariationSpace,
    config: RunnerConfig,
    objective: ObjectiveSpec,
}

impl<'a, P: Parameterization + Sync> InverseDesigner<'a, P> {
    /// Creates a designer.
    ///
    /// # Panics
    ///
    /// Panics if the parameterisation shape disagrees with the problem's
    /// design region.
    pub fn new(
        compiled: &'a CompiledProblem,
        param: &'a P,
        chain: FabChain,
        space: VariationSpace,
        config: RunnerConfig,
    ) -> Self {
        assert_eq!(
            param.design_shape(),
            compiled.problem().design_shape,
            "parameterisation/design-region shape mismatch"
        );
        assert_eq!(
            space.spectral.count,
            compiled.omega_count(),
            "variation space carries {} wavelengths but the problem was \
             compiled for {} (use CompiledProblem::compile_spectral with \
             the same axis)",
            space.spectral.count,
            compiled.omega_count()
        );
        // The optimiser revisits every ω each epoch; past the workspace's
        // slot capacity the per-ω caches would thrash (every visit
        // rebuilding geometry and re-factoring the nominal operator), so
        // refuse rather than silently lose the K-factorisations-per-epoch
        // and zero-allocation guarantees. One-shot wavelength *sweeps*
        // (each ω visited once) have no such constraint.
        assert!(
            space.spectral.count <= boson_fdfd::sim::MAX_OMEGA_SLOTS,
            "spectral axis has {} wavelengths but the solver workspace \
             retains at most {} per-ω slots",
            space.spectral.count,
            boson_fdfd::sim::MAX_OMEGA_SLOTS
        );
        let objective = if config.dense_objectives {
            compiled.problem().objective.clone()
        } else {
            compiled.problem().objective.sparse()
        };
        Self {
            compiled,
            param,
            chain,
            space,
            config,
            objective,
        }
    }

    /// The initial latent vector per the configuration.
    pub fn initial_theta(&self, rng: &mut StdRng) -> Vec<f64>
    where
        P: SeedableParam,
    {
        match self.config.init {
            InitKind::Seeded => self
                .param
                .theta_from_geometry(&self.compiled.problem().seed),
            InitKind::Random { amplitude } => (0..self.param.num_params())
                .map(|_| rng.gen_range(-amplitude..amplitude))
                .collect(),
        }
    }

    /// Pool lanes for the per-corner work of a sweep: `threads` under the
    /// direct strategy, one under the iterative strategies, whose fused
    /// batch carries the parallelism.
    fn lanes(&self) -> usize {
        match self.config.solver {
            SolverStrategy::Direct => self.config.threads.max(1),
            SolverStrategy::PreconditionedIterative { .. } => 1,
        }
    }

    /// `f(i)` for every `i < n` on up to [`Self::lanes`] pool lanes,
    /// collected in index order. One part per index, so any lane count
    /// gives bit-identical results.
    fn par_map<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        pool::global().map_with((0..n).collect(), &mut vec![(); self.lanes()], |i, _| f(i))
    }

    /// Evaluates one extra corner (the worst-case corner) on the caller's
    /// scratch: fabrication forward, EM forward + adjoint through a
    /// [`CornerSolve`] of the run's strategy (`nominal_eps`/`epoch` name
    /// the iterative strategies' shared preconditioner), chain backward.
    #[allow(clippy::too_many_arguments)] // one call site, the iteration's context
    fn eval_corner(
        &self,
        rho: &Array2<f64>,
        corner: &VariationCorner,
        etch: EtchProjection,
        scratch: &mut EvalScratch,
        nominal_eps: &Array2<f64>,
        epoch: u64,
        policy: &mut CornerPolicy,
    ) -> CornerOutcome {
        let problem = self.compiled.problem();
        let fwd = self.chain.forward_with_etch(rho, corner, false, etch);
        let eps = assemble_eps(
            &problem.background_solid,
            problem.design_origin,
            &fwd.rho_fab,
            corner.temperature,
        );
        let solve = CornerSolve {
            strategy: self.config.solver,
            nominal_eps,
            epoch,
            is_nominal: false,
            force_direct: policy.force_direct(corner),
            omega_idx: corner.omega_idx,
        };
        let ev = self
            .compiled
            .evaluate_eps_corner(&eps, true, &self.objective, scratch, Some(&solve))
            .expect("corner simulation failed");
        if ev.solve.fell_back {
            // This corner's perturbation defeats the nominal
            // preconditioner: pin it to the direct path.
            policy.mark_direct(corner);
        }
        let v_rho = grad_eps_to_rho(
            ev.grad_eps.as_ref().expect("gradient requested"),
            problem.design_origin,
            problem.design_shape,
            corner.temperature,
        );
        CornerOutcome {
            objective: ev.objective,
            fom: ev.fom,
            readings: ev.readings,
            v_mask: self.chain.vjp_mask_with_etch(&fwd, &v_rho, etch),
            variation_grads: None,
            factorizations: ev.solve.factorizations,
            bicgstab_iterations: ev.solve.total_iterations,
            bicgstab_solves: if ev.solve.used_iterative {
                ev.solve.solves
            } else {
                0
            },
        }
    }

    /// The corner sweep of one robust iteration over the `active` columns
    /// of the ω-major (fabrication corner × ω) cross product, returning
    /// one ω-folded [`CornerOutcome`] per **live** fabrication corner (a
    /// corner with at least one active column — each outcome aggregated
    /// over its *active* wavelengths with the configured
    /// [`SpectralAggregation`]'s exact weights), the nominal corner's
    /// position among them (always live — its columns are forced) and
    /// its permittivity.
    ///
    /// An all-`true` mask is the full sweep. A partial mask is the
    /// adaptive subspace schedule ([`crate::subspace`]): dormant columns
    /// cost nothing at all — no fabrication forward (when a whole corner
    /// is dormant), no EM solves, no chain backward. The
    /// fabrication-nominal corner must stay active at **every**
    /// wavelength (debug-asserted): under the iterative strategies those
    /// entries refresh the per-ω preconditioner factors and warm starts
    /// the fused batch rides on.
    ///
    /// Every evaluated column reports `(global column index, objective,
    /// spectral aggregation weight, gradient norm)` into `observations`
    /// — the subspace scheduler's EMA feed. The gradient norm is the L2
    /// magnitude of the column's pre-chain ∂objective/∂ρ seed, read off
    /// the fold below for free; it is `NaN` for zero-weight columns
    /// (their adjoints were skipped, so no gradient exists).
    ///
    /// Three fusions happen here:
    ///
    /// 1. **Fabrication forwards** are ω-independent, so the litho/etch
    ///    model runs once per live fabrication corner and its forward is
    ///    shared across that corner's K wavelengths.
    /// 2. **EM solves**: all active (corner, ω) columns go through one
    ///    [`CompiledProblem::evaluate_corner_product`] call — direct
    ///    columns fanned over the lanes, or one fused lockstep BiCGSTAB
    ///    batch preconditioned per ω, with budget misses falling back
    ///    (and [`CornerPolicy`]-pinning) per `(corner, ω)` label.
    /// 3. **Chain backward**: the fabrication VJP is linear in its seed,
    ///    so the spectral aggregation's exact per-ω weights scale the
    ///    *pre-chain* gradients and one VJP per fabrication corner
    ///    back-propagates their weighted sum — K VJPs fold into one.
    ///    With K = 1 the single weight is exactly `1.0`, so the folded
    ///    chain equals the unfolded single-ω chain bit for bit.
    ///
    /// The fabrication forwards and the folded VJPs run per corner on
    /// [`Self::lanes`] pool lanes (independent work, so any lane count is
    /// bit-identical).
    #[allow(clippy::too_many_arguments)] // one call site, the whole iteration's context
    fn eval_sweep(
        &self,
        rho: &Array2<f64>,
        corners: &[VariationCorner],
        etch: EtchProjection,
        epoch: u64,
        scratch: &mut EvalScratch,
        active: &[bool],
        observations: &mut Vec<Observation>,
        policy: &mut CornerPolicy,
    ) -> Sweep {
        let problem = self.compiled.problem();
        let k = self.compiled.omega_count();
        assert_eq!(corners.len() % k, 0, "ragged (corner × ω) product");
        assert_eq!(active.len(), corners.len(), "active mask length mismatch");
        let f_count = corners.len() / k;
        // ω-major replication contract of `spectral_corners`: entry
        // `oi·f_count + f` is fabrication corner `f` at wavelength `oi`.
        debug_assert!(corners
            .iter()
            .enumerate()
            .all(|(ci, c)| c.omega_idx == ci / f_count));
        let fab = &corners[..f_count];
        debug_assert!((0..corners.len()).all(|ci| corners[ci].temperature
            == fab[ci % f_count].temperature
            && corners[ci].xi == fab[ci % f_count].xi));
        // The subspace scheduler's invariant: the fabrication-nominal
        // corner stays active at every wavelength.
        debug_assert!(
            (0..corners.len()).all(|ci| corners[ci].is_varied() || active[ci]),
            "the nominal corner must stay active at every wavelength"
        );

        // Fabrication corners with at least one active column are "live";
        // fully-dormant corners cost nothing at all this iteration.
        let live: Vec<usize> = (0..f_count)
            .filter(|&f| (0..k).any(|oi| active[oi * f_count + f]))
            .collect();
        let fab_nominal = live
            .iter()
            .position(|&f| !fab[f].is_varied())
            .expect("every sampling strategy draws the nominal corner");

        // Fabrication forwards and permittivities, once per live
        // fabrication corner; the ε maps are replicated per active (ω,
        // corner) entry for the solver (cheap memcpys next to the solves
        // they feed).
        let fwds: Vec<(FabForward, Array2<f64>)> = self.par_map(live.len(), |li| {
            let corner = &fab[live[li]];
            let fwd = self.chain.forward_with_etch(rho, corner, false, etch);
            let eps = assemble_eps(
                &problem.background_solid,
                problem.design_origin,
                &fwd.rho_fab,
                corner.temperature,
            );
            (fwd, eps)
        });

        // The active product entries, still ω-major: `sel[pos] = (ci,
        // li)` names entry `pos`'s global column and live-corner index;
        // `pos_of[oi·L + li]` inverts it for the fold (`usize::MAX` =
        // dormant).
        let mut sel: Vec<(usize, usize)> = Vec::with_capacity(corners.len());
        let mut pos_of: Vec<usize> = vec![usize::MAX; k * live.len()];
        for oi in 0..k {
            for (li, &f) in live.iter().enumerate() {
                let ci = oi * f_count + f;
                if active[ci] {
                    pos_of[oi * live.len() + li] = sel.len();
                    sel.push((ci, li));
                }
            }
        }
        let epss: Vec<Array2<f64>> = sel.iter().map(|&(_, li)| fwds[li].1.clone()).collect();
        let force_direct: Vec<bool> = sel
            .iter()
            .map(|&(ci, _)| policy.force_direct(&corners[ci]))
            .collect();
        let omega_idx: Vec<usize> = sel.iter().map(|&(ci, _)| corners[ci].omega_idx).collect();
        let is_nominal: Vec<bool> = sel
            .iter()
            .map(|&(ci, _)| !corners[ci].is_varied())
            .collect();
        let fab_idx: Vec<usize> = sel.iter().map(|&(_, li)| li).collect();
        // Each entry's *global* ω-major product column — the stable
        // identity its Krylov deflation stores are keyed by (the packed
        // position shifts between iterations as the subspace schedule
        // changes; the global column never does).
        let global_cols: Vec<usize> = sel.iter().map(|&(ci, _)| ci).collect();
        let set = CornerProductSolve {
            strategy: self.config.solver,
            nominal_eps: &fwds[fab_nominal].1,
            epoch,
            omega_idx: &omega_idx,
            is_nominal: &is_nominal,
            force_direct: &force_direct,
            threads: self.config.threads,
            // The fold below weights gradients by the aggregation's exact
            // per-ω weights, so zero-weight adjoint solves are pure waste
            // — the fused batch drops them (under WorstCase that is K−1
            // of every corner's K adjoints).
            skip_zero_weight_adjoints: Some((self.config.spectral_agg, &fab_idx)),
            recycle: (self.config.recycle.directions > 0).then_some(global_cols.as_slice()),
        };
        let evals: Vec<Evaluation> = self
            .compiled
            .evaluate_corner_product(&epss, true, &self.objective, scratch, &set)
            .expect("corner sweep failed");

        // Adaptive-policy updates stay per (corner, ω) label.
        for (&(ci, _), ev) in sel.iter().zip(&evals) {
            if ev.solve.fell_back {
                policy.mark_direct(&corners[ci]);
            }
        }

        // Fold the spectral axis per live fabrication corner over its
        // *active* wavelengths (fusion 3 above; the masked aggregation
        // with every wavelength active is bit-identical to the unmasked
        // one).
        let agg = self.config.spectral_agg;
        let nominal_oi = self.compiled.nominal_omega_idx();
        let (dr, dc) = problem.design_shape;
        let folded: Vec<(CornerOutcome, Vec<Observation>)> = self.par_map(live.len(), |li| {
            let f = live[li];
            let (fwd, _) = &fwds[li];
            let pos = |oi: usize| pos_of[oi * live.len() + li];
            let omask: Vec<bool> = (0..k).map(|oi| pos(oi) != usize::MAX).collect();
            let values: Vec<f64> = (0..k)
                .map(|oi| {
                    if omask[oi] {
                        evals[pos(oi)].objective
                    } else {
                        0.0
                    }
                })
                .collect();
            let mut sweights = vec![0.0; k];
            agg.weights_into_masked(&values, &omask, &mut sweights);
            let mut seed = Array2::<f64>::zeros(dr, dc);
            let mut observed = Vec::with_capacity(k);
            for oi in 0..k {
                let wk = sweights[oi];
                // The column's gradient-norm observation — NaN until
                // (unless) the weighted branch below computes one.
                let mut gnorm = f64::NAN;
                if wk != 0.0 {
                    // Zero-weight entries may carry no gradient at
                    // all (the fused batch skipped their adjoints);
                    // every weighted entry always does.
                    let v_rho = grad_eps_to_rho(
                        evals[pos(oi)]
                            .grad_eps
                            .as_ref()
                            .expect("weighted entry carries a gradient"),
                        problem.design_origin,
                        problem.design_shape,
                        fab[f].temperature,
                    );
                    gnorm = v_rho.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt();
                    for (dst, src) in seed.as_mut_slice().iter_mut().zip(v_rho.as_slice()) {
                        *dst += wk * src;
                    }
                }
                if omask[oi] {
                    // The subspace scheduler's EMA feed: every
                    // evaluated column reports its objective, its
                    // spectral weight and (when an adjoint ran) its
                    // gradient norm.
                    observed.push((oi * f_count + f, values[oi], wk, gnorm));
                }
            }
            let v_mask = self.chain.vjp_mask_with_etch(fwd, &seed, etch);
            // Readings/FoM come from the corner's centre-wavelength
            // entry when active (always, for the nominal corner —
            // its columns are all forced), else its first active
            // wavelength.
            let centre_oi = if omask[nominal_oi] {
                nominal_oi
            } else {
                (0..k)
                    .find(|&oi| omask[oi])
                    .expect("live corner has an active wavelength")
            };
            let centre = &evals[pos(centre_oi)];
            let variation_grads = (li == fab_nominal).then(|| {
                // The worst-case search runs at the centre wavelength,
                // whose entry always carries its gradient (no adjoint
                // is skipped on a nominal entry).
                let grad_eps = centre.grad_eps.as_ref().expect("gradient requested");
                let dt = grad_temperature(
                    grad_eps,
                    &problem.background_solid,
                    problem.design_origin,
                    &fwd.rho_fab,
                    fab[f].temperature,
                );
                let v_rho_centre = grad_eps_to_rho(
                    grad_eps,
                    problem.design_origin,
                    problem.design_shape,
                    fab[f].temperature,
                );
                (dt, self.chain.vjp_xi_with_etch(fwd, &v_rho_centre, etch))
            });
            let active_evals = (0..k).filter(|&oi| omask[oi]).map(|oi| &evals[pos(oi)]);
            let outcome = CornerOutcome {
                objective: agg.aggregate_masked(&values, &omask),
                fom: centre.fom,
                readings: centre.readings.clone(),
                v_mask,
                variation_grads,
                factorizations: active_evals.clone().map(|ev| ev.solve.factorizations).sum(),
                bicgstab_iterations: active_evals
                    .clone()
                    .map(|ev| ev.solve.total_iterations)
                    .sum(),
                bicgstab_solves: active_evals
                    .filter(|ev| ev.solve.used_iterative)
                    .map(|ev| ev.solve.solves)
                    .sum(),
            };
            (outcome, observed)
        });
        let mut outcomes = Vec::with_capacity(folded.len());
        for (outcome, observed) in folded {
            outcomes.push(outcome);
            observations.extend(observed);
        }
        let (_, nominal_eps) = fwds
            .into_iter()
            .nth(fab_nominal)
            .expect("nominal corner is live");
        Sweep {
            outcomes,
            nominal: fab_nominal,
            nominal_eps,
        }
    }

    /// Evaluates the unrestricted ("ideal") term: the raw density drives
    /// the permittivity directly, bypassing litho and etch. Returns the
    /// evaluation and its gradient with respect to `rho`.
    fn eval_free(&self, rho: &Array2<f64>, scratch: &mut EvalScratch) -> (Evaluation, Array2<f64>) {
        let problem = self.compiled.problem();
        let eps = assemble_eps(
            &problem.background_solid,
            problem.design_origin,
            rho,
            boson_fab::temperature::T_NOMINAL,
        );
        let ev = self
            .compiled
            .evaluate_eps_scratch(&eps, true, &self.objective, scratch)
            .expect("free simulation failed");
        let v_rho = grad_eps_to_rho(
            ev.grad_eps.as_ref().expect("gradient requested"),
            problem.design_origin,
            problem.design_shape,
            boson_fab::temperature::T_NOMINAL,
        );
        (ev, v_rho)
    }

    /// Runs the optimisation from `theta0`.
    ///
    /// # Panics
    ///
    /// Panics if `theta0` does not match the parameterisation.
    pub fn run(&mut self, theta0: Vec<f64>) -> RunResult {
        assert_eq!(
            theta0.len(),
            self.param.num_params(),
            "theta length mismatch"
        );
        self.run_inner(theta0).0
    }

    /// One robust iteration's objective and its gradient with respect to
    /// θ, at `theta`: the value `run_inner` records and the gradient it
    /// steps Adam with. `scratch`, `subspace`, `observations` and
    /// `policy` are the run's state across iterations.
    #[allow(clippy::too_many_arguments)] // the run's state, passed through
    fn iteration(
        &self,
        theta: &[f64],
        iter: usize,
        beta_sched: &BetaSchedule,
        scratch: &mut EvalScratch,
        subspace: &mut Option<SubspaceScheduler>,
        observations: &mut Vec<Observation>,
        policy: &mut CornerPolicy,
    ) -> IterationEval {
        let (dr, dc) = self.param.design_shape();
        let mut factorizations = 0usize;
        let etch = EtchProjection::new(beta_sched.beta(iter));
        let rho = self.param.forward(theta);
        let p = if self.config.fab_aware {
            self.config.relaxation.p(iter)
        } else {
            0.0
        };

        let mut v_mask_total = Array2::<f64>::zeros(dr, dc);
        let mut objective = 0.0;
        let mut nominal_readings: Option<(Readings, f64)> = None;
        let mut active_set: Option<ActiveSetRecord> = None;
        let (mut bicg_iters, mut bicg_solves) = (0usize, 0usize);

        if self.config.fab_aware {
            let mut rng =
                StdRng::seed_from_u64(self.config.seed ^ (iter as u64).wrapping_mul(0x9E37));
            let lambda_c = 2.0 * std::f64::consts::PI / self.compiled.problem().omega;
            // The (fabrication corner × ω) cross product, ω-major; a
            // single-wavelength space degenerates to the plain corner
            // set bit-identically.
            let corners = self
                .space
                .spectral_corners(self.config.sampling, lambda_c, &mut rng);
            // The subspace scheduler's plan for this iteration (all
            // columns when disabled). The forced set — always-active
            // columns — is the fabrication-nominal corner at every ω.
            let plan = match subspace.as_ref() {
                Some(s) => {
                    let forced: Vec<bool> = corners.iter().map(|c| !c.is_varied()).collect();
                    let plan = s.plan(iter, &forced);
                    active_set = Some(plan.record());
                    plan
                }
                // Disabled scheduler: a full sweep, `refresh` true per
                // SweepPlan's contract (every column active).
                None => SweepPlan {
                    active: vec![true; corners.len()],
                    refresh: true,
                },
            };
            observations.clear();
            let sweep = self.eval_sweep(
                &rho,
                &corners,
                etch,
                iter as u64,
                scratch,
                &plan.active,
                observations,
                policy,
            );
            if let Some(s) = subspace.as_mut() {
                for &(ci, obj, w, g) in observations.iter() {
                    s.record(ci, obj, w);
                    // Zero-weight columns skipped their adjoints
                    // (gnorm NaN): no gradient observation for them.
                    if g.is_finite() {
                        s.record_gradient(ci, g);
                    }
                }
            }

            // Worst-case corner from the nominal gradients, searched
            // and evaluated at the centre wavelength (its gradients
            // were taken there).
            let mut outcomes = sweep.outcomes;
            if self.config.sampling.needs_worst_case() {
                if let Some((dt, dxi)) = &outcomes[sweep.nominal].variation_grads {
                    let mut worst = self.space.worst_case_corner(*dt, dxi);
                    worst.omega_idx = self.compiled.nominal_omega_idx();
                    let o = self.eval_corner(
                        &rho,
                        &worst,
                        etch,
                        scratch,
                        &sweep.nominal_eps,
                        iter as u64,
                        policy,
                    );
                    outcomes.push(o);
                }
            }
            for o in &outcomes {
                factorizations += o.factorizations;
                bicg_iters += o.bicgstab_iterations;
                bicg_solves += o.bicgstab_solves;
            }
            // Robust objective: uniform weight over the live
            // fabrication corners and the worst-case corner, each
            // contributing the spectral aggregate of its evaluated
            // per-ω objectives (K = 1: the value itself). The
            // gradients arrive pre-weighted by the aggregation
            // through each corner's folded chain VJP.
            let w = 1.0 / outcomes.len() as f64;
            let mut obj_fab = 0.0;
            let mut v_fab = Array2::<f64>::zeros(dr, dc);
            for o in &outcomes {
                obj_fab += w * o.objective;
                for (dst, src) in v_fab.as_mut_slice().iter_mut().zip(o.v_mask.as_slice()) {
                    *dst += w * src;
                }
            }
            let nominal = &outcomes[sweep.nominal];
            nominal_readings = Some((nominal.readings.clone(), nominal.fom));
            objective += p * obj_fab;
            for (dst, src) in v_mask_total.as_mut_slice().iter_mut().zip(v_fab.as_slice()) {
                *dst += p * src;
            }
        }

        if p < 1.0 {
            let (free, v_free) = self.eval_free(&rho, scratch);
            factorizations += free.solve.factorizations;
            objective += (1.0 - p) * free.objective;
            for (dst, src) in v_mask_total
                .as_mut_slice()
                .iter_mut()
                .zip(v_free.as_slice())
            {
                *dst += (1.0 - p) * src;
            }
            if nominal_readings.is_none() {
                nominal_readings = Some((free.readings, free.fom));
            }
        }
        IterationEval {
            objective,
            p,
            grad_theta: self.param.vjp(theta, &v_mask_total),
            nominal_readings: nominal_readings.expect("at least one term evaluated"),
            active_set,
            factorizations,
            bicg_iters,
            bicg_solves,
        }
    }

    /// The loop body; also returns the run's final [`CornerPolicy`].
    /// Parallel stages execute on the process-lifetime `boson_num::pool`
    /// substrate, so a run spawns no threads of its own.
    fn run_inner(&self, theta0: Vec<f64>) -> (RunResult, CornerPolicy) {
        let mut theta = theta0;
        let mut adam = Adam::new(theta.len(), self.config.adam);
        let beta_sched = BetaSchedule::new(
            self.config.beta_start,
            self.config.beta_end,
            self.config.iterations.max(1),
        );
        let mut trajectory = Vec::with_capacity(self.config.iterations);
        let mut factorizations = 0usize;

        // The run's scratch: it hosts the corner sweep (and, under the
        // direct strategy, the extra lanes' scratches), the worst-case
        // corner and the free term, so its buffers stay warm across all
        // iterations. The temporal axis — lagged nominal factors +
        // cross-iteration Krylov recycling — is armed here (a no-op for
        // the default, disabled config).
        let mut scratch = EvalScratch::new();
        scratch.configure_recycling(&self.config.recycle);
        // The adaptive corner-subspace scheduler: per-run importance
        // state over the (fabrication corner × ω) cross product. `None`
        // when disabled — every iteration then sweeps the full product.
        let mut subspace: Option<SubspaceScheduler> =
            (self.config.fab_aware && self.config.subspace.is_enabled()).then(|| {
                SubspaceScheduler::new(
                    self.space.product_columns(self.config.sampling),
                    self.config.subspace,
                )
            });
        // One iteration's sweep observations, reused across iterations.
        let mut observations: Vec<Observation> = Vec::new();
        let mut policy = CornerPolicy::default();

        for iter in 0..self.config.iterations {
            let IterationEval {
                objective,
                p,
                grad_theta,
                nominal_readings,
                active_set,
                factorizations: iter_factorizations,
                bicg_iters,
                bicg_solves,
            } = self.iteration(
                &theta,
                iter,
                &beta_sched,
                &mut scratch,
                &mut subspace,
                &mut observations,
                &mut policy,
            );
            factorizations += iter_factorizations;
            // A non-finite value must not reach Adam: its moments would
            // carry it into every later iterate.
            let step_skipped = !objective.is_finite() || grad_theta.iter().any(|g| !g.is_finite());
            if !step_skipped {
                adam.step(&mut theta, &grad_theta);
            }

            let (readings_nominal, fom_nominal) = nominal_readings;
            trajectory.push(IterationRecord {
                iter,
                objective,
                fom_nominal,
                readings_nominal,
                p,
                active_set,
                factorizations: iter_factorizations,
                mean_bicgstab_iterations: if bicg_solves > 0 {
                    bicg_iters as f64 / bicg_solves as f64
                } else {
                    0.0
                },
                step_skipped,
            });
        }

        let mask = self.param.forward(&theta);
        let result = RunResult {
            theta,
            mask,
            trajectory,
            factorizations,
        };
        (result, policy)
    }
}

/// One robust iteration's products (see `InverseDesigner::iteration`).
struct IterationEval {
    objective: f64,
    /// The relaxation weight of the fabrication-aware term.
    p: f64,
    grad_theta: Vec<f64>,
    /// The nominal readings and FoM the iteration reports.
    nominal_readings: (Readings, f64),
    active_set: Option<ActiveSetRecord>,
    factorizations: usize,
    bicg_iters: usize,
    bicg_solves: usize,
}

/// Parameterisations that can be seeded from geometry (both built-in
/// parameterisations implement this).
pub trait SeedableParam: Parameterization {
    /// Latent variables reproducing (approximately) the given geometry.
    fn theta_from_geometry(&self, geometry: &boson_param::sdf::Geometry) -> Vec<f64>;
}

impl SeedableParam for boson_param::LevelSetParam {
    fn theta_from_geometry(&self, geometry: &boson_param::sdf::Geometry) -> Vec<f64> {
        boson_param::LevelSetParam::theta_from_geometry(self, geometry)
    }
}

impl SeedableParam for boson_param::DensityParam {
    fn theta_from_geometry(&self, geometry: &boson_param::sdf::Geometry) -> Vec<f64> {
        boson_param::DensityParam::theta_from_geometry(self, geometry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{levelset_param, standard_chain};
    use crate::problem::bending;

    fn tiny_config(threads: usize, sampling: SamplingStrategy) -> RunnerConfig {
        RunnerConfig {
            iterations: 2,
            sampling,
            relaxation: RelaxationSchedule::over(1),
            threads,
            ..RunnerConfig::default()
        }
    }

    /// The persistent pool must be an implementation detail: runs at 1, 2
    /// and 4 lanes are bit-identical. Under `AxialPlusWorst` with a
    /// relaxation longer than the run, every iteration also solves the
    /// worst-case corner and the free term (`p < 1`).
    #[test]
    fn parallel_and_serial_runs_agree() {
        let compiled = CompiledProblem::compile(bending()).unwrap();
        let problem = compiled.problem().clone();
        let param = levelset_param(&problem, false);
        let space = VariationSpace::default();
        let mut results = Vec::new();
        for threads in [1usize, 2, 4] {
            let config = RunnerConfig {
                relaxation: RelaxationSchedule::over(4),
                ..tiny_config(threads, SamplingStrategy::AxialPlusWorst)
            };
            assert!(config.relaxation.p(config.iterations - 1) < 1.0);
            let mut designer = InverseDesigner::new(
                &compiled,
                &param,
                standard_chain(&problem),
                space.clone(),
                config,
            );
            let mut rng = StdRng::seed_from_u64(3);
            let theta0 = designer.initial_theta(&mut rng);
            results.push(designer.run(theta0));
        }
        let bits = |r: &RunResult| {
            let trajectory: Vec<_> = r
                .trajectory
                .iter()
                .map(|t| {
                    (
                        t.objective.to_bits(),
                        t.fom_nominal.to_bits(),
                        t.factorizations,
                    )
                })
                .collect();
            let theta: Vec<u64> = r.theta.iter().map(|t| t.to_bits()).collect();
            (r.factorizations, trajectory, theta)
        };
        for (lanes, r) in [2, 4].iter().zip(&results[1..]) {
            assert!(bits(r) == bits(&results[0]), "{lanes} lanes differ from 1");
        }
    }

    /// The iterative corner solver must also be an implementation detail
    /// of the fan-out: threaded and serial runs stay bit-identical
    /// because every worker preconditions against bit-identical nominal
    /// factors and the adaptive policy is updated on the calling thread.
    #[test]
    fn iterative_parallel_and_serial_runs_agree() {
        let compiled = CompiledProblem::compile(bending()).unwrap();
        let problem = compiled.problem().clone();
        let param = levelset_param(&problem, false);
        let space = VariationSpace::default();
        let mut results = Vec::new();
        for threads in [1usize, 4] {
            let mut designer = InverseDesigner::new(
                &compiled,
                &param,
                standard_chain(&problem),
                space.clone(),
                RunnerConfig {
                    solver: SolverStrategy::preconditioned_iterative(),
                    ..tiny_config(threads, SamplingStrategy::AxialSingleSided)
                },
            );
            let mut rng = StdRng::seed_from_u64(3);
            let theta0 = designer.initial_theta(&mut rng);
            results.push(designer.run(theta0));
        }
        let (a, b) = (&results[0], &results[1]);
        for (ra, rb) in a.trajectory.iter().zip(&b.trajectory) {
            assert_eq!(
                ra.objective, rb.objective,
                "iter {}: {} vs {}",
                ra.iter, ra.objective, rb.objective
            );
        }
        for (ta, tb) in a.theta.iter().zip(&b.theta) {
            assert_eq!(ta, tb);
        }
    }

    /// The iterative strategy reproduces the direct strategy's trajectory
    /// to solver tolerance while factoring far fewer operators — across
    /// different etch-sharpening β schedules (sharper β means stronger
    /// corner perturbations).
    #[test]
    fn iterative_strategy_matches_direct_and_saves_factorizations() {
        let compiled = CompiledProblem::compile(bending()).unwrap();
        let problem = compiled.problem().clone();
        let param = levelset_param(&problem, false);
        let space = VariationSpace::default();
        for (beta_start, beta_end) in [(10.0, 40.0), (40.0, 80.0)] {
            let run_with = |solver: SolverStrategy| {
                let mut designer = InverseDesigner::new(
                    &compiled,
                    &param,
                    standard_chain(&problem),
                    space.clone(),
                    RunnerConfig {
                        solver,
                        beta_start,
                        beta_end,
                        ..tiny_config(1, SamplingStrategy::AxialSingleSided)
                    },
                );
                let mut rng = StdRng::seed_from_u64(3);
                let theta0 = designer.initial_theta(&mut rng);
                designer.run(theta0)
            };
            let direct = run_with(SolverStrategy::Direct);
            let iterative = run_with(SolverStrategy::PreconditionedIterative {
                tol: 1e-10,
                max_iters: 40,
            });
            for (rd, ri) in direct.trajectory.iter().zip(&iterative.trajectory) {
                assert!(
                    (rd.objective - ri.objective).abs() < 1e-7 * (1.0 + rd.objective.abs()),
                    "β=({beta_start},{beta_end}) iter {}: direct {} vs iterative {}",
                    rd.iter,
                    rd.objective,
                    ri.objective
                );
            }
            assert!(
                iterative.factorizations < direct.factorizations,
                "β=({beta_start},{beta_end}): iterative did {} factorizations, direct {}",
                iterative.factorizations,
                direct.factorizations
            );
        }
    }

    /// A starved iteration budget makes every non-nominal corner fall
    /// back, so the run degrades to the direct strategy **bit-exactly**
    /// — and the adaptive policy pins those corners to the direct path
    /// afterwards (no repeated wasted iterative attempts).
    #[test]
    fn starved_iterative_budget_degrades_to_direct_bitwise() {
        let compiled = CompiledProblem::compile(bending()).unwrap();
        let problem = compiled.problem().clone();
        let param = levelset_param(&problem, false);
        let space = VariationSpace::default();
        let run_with = |solver: SolverStrategy| {
            let designer = InverseDesigner::new(
                &compiled,
                &param,
                standard_chain(&problem),
                space.clone(),
                RunnerConfig {
                    solver,
                    ..tiny_config(1, SamplingStrategy::AxialSingleSided)
                },
            );
            let mut rng = StdRng::seed_from_u64(3);
            let theta0 = designer.initial_theta(&mut rng);
            let (res, policy) = designer.run_inner(theta0);
            (res, policy.0.len())
        };
        let (direct, _) = run_with(SolverStrategy::Direct);
        // An impossible tolerance within a one-iteration budget: every
        // perturbed corner must miss and fall back.
        let (starved, marked) = run_with(SolverStrategy::PreconditionedIterative {
            tol: 1e-300,
            max_iters: 1,
        });
        for (rd, ri) in direct.trajectory.iter().zip(&starved.trajectory) {
            assert_eq!(rd.objective, ri.objective, "iter {}", rd.iter);
        }
        for (td, ti) in direct.theta.iter().zip(&starved.theta) {
            assert_eq!(td, ti);
        }
        // AxialSingleSided = nominal + 3 varied corners: all three marked.
        assert_eq!(marked, 3, "policy should pin every hard corner");
    }

    /// The spectral axis must be a *strict* extension: a `K = 1` axis —
    /// whatever its half-span or aggregation — runs **bit-identically**
    /// to the original single-ω pipeline, for both solver strategies and
    /// both fan-out modes.
    #[test]
    fn k1_spectral_runs_are_bit_identical_to_single_omega_runs() {
        use crate::objective::SpectralAggregation;
        use boson_fab::SpectralAxis;
        let compiled = CompiledProblem::compile(bending()).unwrap();
        let problem = compiled.problem().clone();
        let param = levelset_param(&problem, false);
        for solver in [
            SolverStrategy::Direct,
            SolverStrategy::preconditioned_iterative(),
        ] {
            for threads in [1usize, 4] {
                let run = |space: VariationSpace, agg: SpectralAggregation| {
                    let mut designer = InverseDesigner::new(
                        &compiled,
                        &param,
                        standard_chain(&problem),
                        space,
                        RunnerConfig {
                            solver,
                            spectral_agg: agg,
                            ..tiny_config(threads, SamplingStrategy::AxialSingleSided)
                        },
                    );
                    let mut rng = StdRng::seed_from_u64(3);
                    let theta0 = designer.initial_theta(&mut rng);
                    designer.run(theta0)
                };
                let base = run(VariationSpace::default(), SpectralAggregation::Mean);
                // K = 1 with a non-zero half-span still samples only λ_c.
                let k1 = VariationSpace {
                    spectral: SpectralAxis::around(0.05, 1),
                    ..VariationSpace::default()
                };
                for agg in [SpectralAggregation::Mean, SpectralAggregation::WorstCase] {
                    let spectral = run(k1.clone(), agg);
                    assert_eq!(
                        base.factorizations, spectral.factorizations,
                        "{solver:?}/{threads}/{agg:?}"
                    );
                    for (rb, rs) in base.trajectory.iter().zip(&spectral.trajectory) {
                        assert_eq!(
                            rb.objective, rs.objective,
                            "{solver:?}/{threads}/{agg:?} iter {}",
                            rb.iter
                        );
                        assert_eq!(rb.fom_nominal, rs.fom_nominal);
                    }
                    for (tb, ts) in base.theta.iter().zip(&spectral.theta) {
                        assert_eq!(tb, ts, "{solver:?}/{threads}/{agg:?}");
                    }
                }
            }
        }
    }

    /// Broadband (K = 3) robust runs: the batched spectral-iterative path
    /// reproduces the direct strategy to solver tolerance with far fewer
    /// factorisations, and both strategies are thread-count invariant.
    #[test]
    fn broadband_iterative_matches_direct_and_is_thread_invariant() {
        use boson_fab::SpectralAxis;
        let axis = SpectralAxis::around(0.02, 3);
        let compiled = CompiledProblem::compile_spectral(bending(), axis).unwrap();
        assert_eq!(compiled.omega_count(), 3);
        assert_eq!(compiled.nominal_omega_idx(), 1);
        let problem = compiled.problem().clone();
        let param = levelset_param(&problem, false);
        let space = VariationSpace {
            spectral: axis,
            ..VariationSpace::default()
        };
        let run = |solver: SolverStrategy, threads: usize| {
            let mut designer = InverseDesigner::new(
                &compiled,
                &param,
                standard_chain(&problem),
                space.clone(),
                RunnerConfig {
                    solver,
                    spectral_agg: crate::objective::SpectralAggregation::WorstCase,
                    ..tiny_config(threads, SamplingStrategy::AxialSingleSided)
                },
            );
            let mut rng = StdRng::seed_from_u64(3);
            let theta0 = designer.initial_theta(&mut rng);
            designer.run(theta0)
        };
        let direct = run(SolverStrategy::Direct, 1);
        let direct_threaded = run(SolverStrategy::Direct, 4);
        let iterative = run(
            SolverStrategy::PreconditionedIterative {
                tol: 1e-10,
                max_iters: 40,
            },
            1,
        );
        let iterative_threaded = run(
            SolverStrategy::PreconditionedIterative {
                tol: 1e-10,
                max_iters: 40,
            },
            4,
        );
        for (rd, ri) in direct.trajectory.iter().zip(&iterative.trajectory) {
            assert!(
                (rd.objective - ri.objective).abs() < 1e-7 * (1.0 + rd.objective.abs()),
                "iter {}: direct {} vs iterative {}",
                rd.iter,
                rd.objective,
                ri.objective
            );
        }
        assert!(
            iterative.factorizations < direct.factorizations,
            "iterative {} !< direct {}",
            iterative.factorizations,
            direct.factorizations
        );
        // Thread-count invariance, bit-exact, for both strategies.
        for ((a, b), what) in [
            ((&direct, &direct_threaded), "direct"),
            ((&iterative, &iterative_threaded), "iterative"),
        ] {
            for (ra, rb) in a.trajectory.iter().zip(&b.trajectory) {
                assert_eq!(ra.objective, rb.objective, "{what} iter {}", ra.iter);
            }
            for (ta, tb) in a.theta.iter().zip(&b.theta) {
                assert_eq!(ta, tb, "{what}");
            }
        }
    }

    /// The subspace scheduler with `M =` the full product must be a pure
    /// no-op: runs are **bit-identical** to the scheduler-disabled fused
    /// pipeline — for both aggregations, serial and threaded — and the
    /// telemetry records every iteration as a full sweep.
    #[test]
    fn subspace_full_m_runs_are_bit_identical_to_full_sweeps() {
        use crate::subspace::SubspaceConfig;
        use boson_fab::SpectralAxis;
        let axis = SpectralAxis::around(0.02, 3);
        let compiled = CompiledProblem::compile_spectral(bending(), axis).unwrap();
        let problem = compiled.problem().clone();
        let param = levelset_param(&problem, false);
        let space = VariationSpace {
            spectral: axis,
            ..VariationSpace::default()
        };
        let columns = space.product_columns(SamplingStrategy::AxialSingleSided);
        assert_eq!(columns, 4 * 3);
        for agg in [SpectralAggregation::Mean, SpectralAggregation::WorstCase] {
            for threads in [1usize, 4] {
                let run = |subspace: SubspaceConfig| {
                    let mut designer = InverseDesigner::new(
                        &compiled,
                        &param,
                        standard_chain(&problem),
                        space.clone(),
                        RunnerConfig {
                            solver: SolverStrategy::preconditioned_iterative(),
                            spectral_agg: agg,
                            subspace,
                            ..tiny_config(threads, SamplingStrategy::AxialSingleSided)
                        },
                    );
                    let mut rng = StdRng::seed_from_u64(3);
                    let theta0 = designer.initial_theta(&mut rng);
                    designer.run(theta0)
                };
                let disabled = run(SubspaceConfig::default());
                let full_m = run(SubspaceConfig::with_active_columns(columns));
                let tag = format!("{agg:?}/threads={threads}");
                assert_eq!(
                    disabled.factorizations, full_m.factorizations,
                    "{tag}: factorisation counts diverged"
                );
                for (rd, rf) in disabled.trajectory.iter().zip(&full_m.trajectory) {
                    assert_eq!(rd.objective, rf.objective, "{tag} iter {}", rd.iter);
                    assert_eq!(rd.fom_nominal, rf.fom_nominal, "{tag} iter {}", rd.iter);
                }
                for (td, tf) in disabled.theta.iter().zip(&full_m.theta) {
                    assert_eq!(td, tf, "{tag}");
                }
                // Telemetry: disabled = no record; M = full = every
                // iteration a full sweep.
                assert!(disabled.trajectory.iter().all(|r| r.active_set.is_none()));
                for r in &full_m.trajectory {
                    let rec = r.active_set.expect("scheduler enabled");
                    assert_eq!(rec.active_columns, columns);
                    assert_eq!(rec.product_columns, columns);
                    assert!(rec.refresh);
                }
            }
        }
    }

    /// `M = 1` clamps to the forced set — the fabrication-nominal corner
    /// at every wavelength — so partial iterations evaluate exactly K
    /// columns (and one fabrication forward), while refresh epochs still
    /// sweep everything.
    #[test]
    fn subspace_m1_degenerates_to_nominal_only_between_refreshes() {
        use crate::subspace::SubspaceConfig;
        use boson_fab::SpectralAxis;
        let axis = SpectralAxis::around(0.02, 3);
        let compiled = CompiledProblem::compile_spectral(bending(), axis).unwrap();
        let problem = compiled.problem().clone();
        let param = levelset_param(&problem, false);
        let space = VariationSpace {
            spectral: axis,
            ..VariationSpace::default()
        };
        let columns = space.product_columns(SamplingStrategy::AxialSingleSided);
        let mut designer = InverseDesigner::new(
            &compiled,
            &param,
            standard_chain(&problem),
            space,
            RunnerConfig {
                iterations: 4,
                solver: SolverStrategy::preconditioned_iterative(),
                subspace: SubspaceConfig {
                    refresh_every: 3,
                    ..SubspaceConfig::with_active_columns(1)
                },
                sampling: SamplingStrategy::AxialSingleSided,
                relaxation: RelaxationSchedule::over(1),
                threads: 1,
                ..RunnerConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(3);
        let theta0 = designer.initial_theta(&mut rng);
        let res = designer.run(theta0);
        assert_eq!(res.trajectory.len(), 4);
        for r in &res.trajectory {
            let rec = r.active_set.expect("scheduler enabled");
            assert_eq!(rec.product_columns, columns);
            if r.iter % 3 == 0 {
                assert!(rec.refresh, "iter {}", r.iter);
                assert_eq!(rec.active_columns, columns, "iter {}", r.iter);
            } else {
                assert!(!rec.refresh, "iter {}", r.iter);
                // The forced set alone: the nominal corner's 3 columns.
                assert_eq!(rec.active_columns, 3, "iter {}", r.iter);
            }
            assert!(r.objective.is_finite());
        }
    }

    /// A partial subspace schedule is thread-count invariant: the same
    /// partial schedule at 1 and 4 threads gives bit-identical runs.
    #[test]
    fn subspace_partial_runs_are_thread_invariant() {
        use crate::subspace::SubspaceConfig;
        use boson_fab::SpectralAxis;
        let axis = SpectralAxis::around(0.02, 3);
        let compiled = CompiledProblem::compile_spectral(bending(), axis).unwrap();
        let problem = compiled.problem().clone();
        let param = levelset_param(&problem, false);
        let space = VariationSpace {
            spectral: axis,
            ..VariationSpace::default()
        };
        let run = |threads: usize| {
            let mut designer = InverseDesigner::new(
                &compiled,
                &param,
                standard_chain(&problem),
                space.clone(),
                RunnerConfig {
                    iterations: 4,
                    solver: SolverStrategy::preconditioned_iterative(),
                    spectral_agg: SpectralAggregation::WorstCase,
                    subspace: SubspaceConfig {
                        refresh_every: 3,
                        ..SubspaceConfig::with_active_columns(6)
                    },
                    sampling: SamplingStrategy::AxialSingleSided,
                    relaxation: RelaxationSchedule::over(1),
                    threads,
                    ..RunnerConfig::default()
                },
            );
            let mut rng = StdRng::seed_from_u64(3);
            let theta0 = designer.initial_theta(&mut rng);
            designer.run(theta0)
        };
        let (base, threaded) = (run(1), run(4));
        // Some iteration actually ran partial (6 of 12 columns).
        assert!(base
            .trajectory
            .iter()
            .any(|r| r.active_set.is_some_and(|rec| rec.active_columns == 6)));
        assert_runs_identical(&base, &threaded, "threaded");
    }

    /// The refresh epoch composes with [`CornerPolicy`] direct-pinning: a
    /// corner pinned during a partial sweep stays pinned through refresh
    /// epochs (and vice versa) — the policy is keyed by (corner, ω)
    /// label, not by schedule.
    #[test]
    fn subspace_schedule_composes_with_corner_policy_pinning() {
        use crate::subspace::SubspaceConfig;
        use boson_fab::SpectralAxis;
        let axis = SpectralAxis::around(0.02, 3);
        let compiled = CompiledProblem::compile_spectral(bending(), axis).unwrap();
        let problem = compiled.problem().clone();
        let param = levelset_param(&problem, false);
        let space = VariationSpace {
            spectral: axis,
            ..VariationSpace::default()
        };
        // A starved budget: every evaluated varied column falls back and
        // is pinned.
        let designer = InverseDesigner::new(
            &compiled,
            &param,
            standard_chain(&problem),
            space,
            RunnerConfig {
                iterations: 4,
                solver: SolverStrategy::PreconditionedIterative {
                    tol: 1e-300,
                    max_iters: 1,
                },
                subspace: SubspaceConfig {
                    refresh_every: 3,
                    ..SubspaceConfig::with_active_columns(6)
                },
                sampling: SamplingStrategy::AxialSingleSided,
                relaxation: RelaxationSchedule::over(1),
                threads: 1,
                ..RunnerConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(3);
        let theta0 = designer.initial_theta(&mut rng);
        let (res, policy) = designer.run_inner(theta0);
        assert_eq!(res.trajectory.len(), 4);
        // The full product's varied stable columns: 3 varied corners × 3
        // ω — all seen by the iteration-0 refresh epoch, all pinned.
        let marked = policy.0.len();
        assert_eq!(marked, 9, "refresh epoch should pin every hard column");
    }

    /// Bit-identity of two runs: objective, FoM, factorisation counts,
    /// active sets and the final θ.
    fn assert_runs_identical(a: &RunResult, b: &RunResult, tag: &str) {
        assert_eq!(a.factorizations, b.factorizations, "{tag}");
        for (ra, rb) in a.trajectory.iter().zip(&b.trajectory) {
            assert_eq!(ra.objective, rb.objective, "{tag} iter {}", ra.iter);
            assert_eq!(ra.fom_nominal, rb.fom_nominal, "{tag} iter {}", ra.iter);
            assert_eq!(
                ra.factorizations, rb.factorizations,
                "{tag} iter {}",
                ra.iter
            );
            assert_eq!(ra.active_set, rb.active_set, "{tag} iter {}", ra.iter);
        }
        assert_eq!(a.theta, b.theta, "{tag}");
    }

    /// A `k`-wavelength direct-strategy run with the subspace scheduler
    /// at `active_columns`, `threads` lanes.
    fn direct_subspace_run(k: usize, active_columns: Option<usize>, threads: usize) -> RunResult {
        use crate::subspace::SubspaceConfig;
        use boson_fab::SpectralAxis;
        let axis = SpectralAxis::around(0.02, k);
        let compiled = CompiledProblem::compile_spectral(bending(), axis).unwrap();
        let problem = compiled.problem().clone();
        let param = levelset_param(&problem, false);
        let space = VariationSpace {
            spectral: axis,
            ..VariationSpace::default()
        };
        let mut designer = InverseDesigner::new(
            &compiled,
            &param,
            standard_chain(&problem),
            space,
            RunnerConfig {
                spectral_agg: SpectralAggregation::WorstCase,
                subspace: active_columns
                    .map_or_else(SubspaceConfig::default, SubspaceConfig::with_active_columns),
                ..tiny_config(threads, SamplingStrategy::AxialSingleSided)
            },
        );
        let mut rng = StdRng::seed_from_u64(3);
        let theta0 = designer.initial_theta(&mut rng);
        designer.run(theta0)
    }

    /// The scheduler works under the direct strategy too, and `M =` the
    /// full product is a pure no-op there: bit-identical to the
    /// scheduler-off run.
    #[test]
    fn subspace_full_m_direct_runs_are_bit_identical_to_scheduler_off() {
        let full = direct_subspace_run(1, Some(4), 2);
        let off = direct_subspace_run(1, None, 2);
        for r in &full.trajectory {
            let rec = r.active_set.expect("scheduler enabled");
            assert_eq!((rec.active_columns, rec.product_columns), (4, 4));
        }
        assert!(off.trajectory.iter().all(|r| r.active_set.is_none()));
        let strip = |mut r: RunResult| {
            for rec in &mut r.trajectory {
                rec.active_set = None;
            }
            r
        };
        assert_runs_identical(&strip(full), &strip(off), "M = full vs off");
    }

    /// A partial direct-strategy schedule fans its direct columns,
    /// fabrication forwards and chain VJPs over the lanes; any lane count
    /// is bit-identical.
    #[test]
    fn subspace_partial_direct_runs_are_thread_invariant() {
        let serial = direct_subspace_run(3, Some(6), 1);
        // Iteration 0 is a refresh epoch, iteration 1 runs partial.
        let rec = serial.trajectory[1].active_set.expect("scheduler enabled");
        assert_eq!((rec.active_columns, rec.refresh), (6, false));
        assert_runs_identical(
            &serial,
            &direct_subspace_run(3, Some(6), 4),
            "threads 1 vs 4",
        );
    }

    /// A K > 1 variation space requires a matching spectral compilation.
    #[test]
    #[should_panic(expected = "compiled for")]
    fn spectral_space_against_single_omega_problem_panics() {
        use boson_fab::SpectralAxis;
        let compiled = CompiledProblem::compile(bending()).unwrap();
        let problem = compiled.problem().clone();
        let param = levelset_param(&problem, false);
        let space = VariationSpace {
            spectral: SpectralAxis::around(0.02, 3),
            ..VariationSpace::default()
        };
        let _ = InverseDesigner::new(
            &compiled,
            &param,
            standard_chain(&problem),
            space,
            tiny_config(1, SamplingStrategy::AxialSingleSided),
        );
    }

    /// The armed temporal axis — Krylov recycling + lagged nominal
    /// factors — reproduces the eager trajectory to solver tolerance
    /// while factoring strictly fewer operators, stays serial ↔ threaded
    /// bit-identical, and reports the win through the new per-iteration
    /// telemetry (refactor counts and mean BiCGSTAB iterations).
    #[test]
    fn recycling_matches_eager_to_tolerance_and_saves_factorizations() {
        use boson_fab::SpectralAxis;
        let axis = SpectralAxis::around(0.02, 3);
        let compiled = CompiledProblem::compile_spectral(bending(), axis).unwrap();
        let problem = compiled.problem().clone();
        let param = levelset_param(&problem, false);
        let space = VariationSpace {
            spectral: axis,
            ..VariationSpace::default()
        };
        let run = |recycle: RecycleConfig, threads: usize| {
            let mut designer = InverseDesigner::new(
                &compiled,
                &param,
                standard_chain(&problem),
                space.clone(),
                RunnerConfig {
                    iterations: 4,
                    solver: SolverStrategy::PreconditionedIterative {
                        tol: 1e-10,
                        max_iters: 40,
                    },
                    spectral_agg: SpectralAggregation::WorstCase,
                    recycle,
                    sampling: SamplingStrategy::AxialSingleSided,
                    relaxation: RelaxationSchedule::over(1),
                    threads,
                    ..RunnerConfig::default()
                },
            );
            let mut rng = StdRng::seed_from_u64(3);
            let theta0 = designer.initial_theta(&mut rng);
            designer.run(theta0)
        };
        let eager = run(RecycleConfig::default(), 1);
        let recycled = run(RecycleConfig::enabled(), 1);
        let recycled_threaded = run(RecycleConfig::enabled(), 4);
        for (re, rr) in eager.trajectory.iter().zip(&recycled.trajectory) {
            assert!(
                (re.objective - rr.objective).abs() < 1e-6 * (1.0 + re.objective.abs()),
                "iter {}: eager {} vs recycled {}",
                re.iter,
                re.objective,
                rr.objective
            );
        }
        assert!(
            recycled.factorizations < eager.factorizations,
            "recycled {} !< eager {}",
            recycled.factorizations,
            eager.factorizations
        );
        // Telemetry: the first epoch builds every ω factor; lag-kept
        // steady-state epochs refactor less (here: not at all beyond the
        // free term), and iterative solves report a positive mean.
        let first = &recycled.trajectory[0];
        assert!(first.factorizations >= 3, "epoch 0 builds the ω factors");
        for r in &recycled.trajectory[1..] {
            assert!(
                r.factorizations < first.factorizations,
                "iter {}: {} refactors !< epoch-0 {}",
                r.iter,
                r.factorizations,
                first.factorizations
            );
            assert!(r.mean_bicgstab_iterations > 0.0, "iter {}", r.iter);
        }
        // Recycling keeps the serial ↔ threaded invariance: the deflation
        // pre-pass and harvests run outside the threaded sweep split.
        assert_eq!(recycled.factorizations, recycled_threaded.factorizations);
        for (ra, rb) in recycled
            .trajectory
            .iter()
            .zip(&recycled_threaded.trajectory)
        {
            assert_eq!(ra.objective, rb.objective, "iter {}", ra.iter);
            assert_eq!(
                ra.mean_bicgstab_iterations, rb.mean_bicgstab_iterations,
                "iter {}",
                ra.iter
            );
        }
        for (ta, tb) in recycled.theta.iter().zip(&recycled_threaded.theta) {
            assert_eq!(ta, tb);
        }
    }

    /// Test-only parameterisation that poisons one entry of the gradient
    /// on the `nan_call`-th `vjp` call (one call per iteration).
    struct NanGradientAt<'p, P> {
        inner: &'p P,
        nan_call: usize,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl<P: Parameterization> Parameterization for NanGradientAt<'_, P> {
        fn num_params(&self) -> usize {
            self.inner.num_params()
        }

        fn design_shape(&self) -> (usize, usize) {
            self.inner.design_shape()
        }

        fn forward(&self, theta: &[f64]) -> Array2<f64> {
            self.inner.forward(theta)
        }

        fn vjp(&self, theta: &[f64], v: &Array2<f64>) -> Vec<f64> {
            let call = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let mut grad = self.inner.vjp(theta, v);
            if call == self.nan_call {
                grad[0] = f64::NAN;
            }
            grad
        }
    }

    /// A non-finite gradient skips that one Adam step and leaves θ
    /// finite; the iterations before it are bit-identical to a clean run.
    #[test]
    fn non_finite_gradient_skips_the_step_and_keeps_theta_finite() {
        let compiled = CompiledProblem::compile(bending()).unwrap();
        let problem = compiled.problem().clone();
        let param = levelset_param(&problem, false);
        let config = RunnerConfig {
            iterations: 4,
            ..tiny_config(1, SamplingStrategy::NominalOnly)
        };
        let nan_iter = 2;
        let mut designer = InverseDesigner::new(
            &compiled,
            &param,
            standard_chain(&problem),
            VariationSpace::default(),
            config.clone(),
        );
        let theta0 = designer.initial_theta(&mut StdRng::seed_from_u64(3));
        let clean = designer.run(theta0.clone());
        let poisoned_param = NanGradientAt {
            inner: &param,
            nan_call: nan_iter,
            calls: std::sync::atomic::AtomicUsize::new(0),
        };
        let poisoned = InverseDesigner::new(
            &compiled,
            &poisoned_param,
            standard_chain(&problem),
            VariationSpace::default(),
            config,
        )
        .run(theta0);
        assert!(poisoned.theta.iter().all(|t| t.is_finite()), "θ poisoned");
        let skipped: Vec<usize> = poisoned
            .trajectory
            .iter()
            .filter(|r| r.step_skipped)
            .map(|r| r.iter)
            .collect();
        assert_eq!(skipped, vec![nan_iter]);
        assert!(clean.trajectory.iter().all(|r| !r.step_skipped));
        for (a, b) in clean.trajectory.iter().zip(&poisoned.trajectory) {
            if a.iter > nan_iter {
                break;
            }
            assert_eq!(
                a.objective.to_bits(),
                b.objective.to_bits(),
                "iter {}",
                a.iter
            );
            assert_eq!(
                a.fom_nominal.to_bits(),
                b.fom_nominal.to_bits(),
                "iter {}",
                a.iter
            );
            assert_eq!(a.factorizations, b.factorizations, "iter {}", a.iter);
        }
        assert!(poisoned.trajectory.iter().all(|r| r.objective.is_finite()));
    }

    /// Test-only parameterisation that puts a NaN into one design cell of
    /// ρ on the `nan_call`-th `forward` call (one call per iteration).
    struct NanDensityAt<'p, P> {
        inner: &'p P,
        nan_call: usize,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl<P: Parameterization> Parameterization for NanDensityAt<'_, P> {
        fn num_params(&self) -> usize {
            self.inner.num_params()
        }

        fn design_shape(&self) -> (usize, usize) {
            self.inner.design_shape()
        }

        fn forward(&self, theta: &[f64]) -> Array2<f64> {
            let call = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let mut rho = self.inner.forward(theta);
            if call == self.nan_call {
                let (dr, dc) = rho.shape();
                rho[(dr / 2, dc / 2)] = f64::NAN;
            }
            rho
        }

        fn vjp(&self, theta: &[f64], v: &Array2<f64>) -> Vec<f64> {
            self.inner.vjp(theta, v)
        }
    }

    /// The free term counts the factorisations its solve reports: a NaN
    /// in ρ fails the design-window solve's backward-error check, so that
    /// iteration's operator is factored again on the plain banded LU —
    /// two factorisations. The clean iterations around it factor once.
    #[test]
    fn free_term_counts_the_window_fallback_factorisation() {
        let compiled = CompiledProblem::compile(bending()).unwrap();
        let problem = compiled.problem().clone();
        let param = levelset_param(&problem, false);
        let config = RunnerConfig {
            iterations: 3,
            fab_aware: false,
            ..tiny_config(1, SamplingStrategy::NominalOnly)
        };
        let theta0 = InverseDesigner::new(
            &compiled,
            &param,
            standard_chain(&problem),
            VariationSpace::default(),
            config.clone(),
        )
        .initial_theta(&mut StdRng::seed_from_u64(3));
        let poisoned_param = NanDensityAt {
            inner: &param,
            nan_call: 1,
            calls: std::sync::atomic::AtomicUsize::new(0),
        };
        let res = InverseDesigner::new(
            &compiled,
            &poisoned_param,
            standard_chain(&problem),
            VariationSpace::default(),
            config,
        )
        .run(theta0);
        let counts: Vec<usize> = res.trajectory.iter().map(|r| r.factorizations).collect();
        assert_eq!(counts, vec![1, 2, 1]);
        assert_eq!(res.factorizations, 4);
    }

    #[test]
    fn nominal_only_runs_without_pool() {
        let compiled = CompiledProblem::compile(bending()).unwrap();
        let problem = compiled.problem().clone();
        let param = levelset_param(&problem, false);
        let mut designer = InverseDesigner::new(
            &compiled,
            &param,
            standard_chain(&problem),
            VariationSpace::default(),
            tiny_config(8, SamplingStrategy::NominalOnly),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let theta0 = designer.initial_theta(&mut rng);
        let res = designer.run(theta0);
        assert_eq!(res.trajectory.len(), 2);
        assert!(res.factorizations > 0);
    }

    /// θ-level gradient check through one full `Direct` runner iteration
    /// on the design-window path — the fabrication sweep (its nominal
    /// entry full-field, the other corners window-only) and the free term
    /// (window-only), folded through the fabrication chain and the
    /// level-set VJP — for the bend and the isolator (whose ports reach
    /// into both slabs): the directional derivative `∇J·v` along a fixed
    /// unit direction against central differences of `J` itself.
    ///
    /// Tolerance, as in `boson_fdfd`'s ε-level checks: central
    /// differences carry 2e-3 of the derivative's own value (O(h²)
    /// truncation) plus 1e-6 of the gradient scale `‖∇J‖₂` (round-off).
    /// Every window solve passes its backward-error check, so its relative
    /// field error is at most `κ∞(A)·WINDOW_BACKWARD_TOL`; the gradient,
    /// bilinear in the field and the adjoint, moves by at most
    /// `2·κ∞·WINDOW_BACKWARD_TOL` of its scale. `κ∞` is Hager's estimate
    /// (× 10) for the nominal corner's operator.
    #[test]
    fn direct_iteration_gradient_matches_finite_difference() {
        use crate::compiled::tests::inverse_norm_estimate;
        use crate::problem::isolator;
        use boson_fdfd::operator::{assemble_banded, StencilCache};
        use boson_fdfd::pml::SFactors;
        use boson_fdfd::window::WINDOW_BACKWARD_TOL;
        for problem in [bending(), isolator()] {
            let name = problem.name.clone();
            let compiled = CompiledProblem::compile(problem.clone()).unwrap();
            let param = levelset_param(&problem, false);
            let config = RunnerConfig {
                relaxation: RelaxationSchedule::over(4),
                ..tiny_config(2, SamplingStrategy::AxialDoubleSided)
            };
            assert!(config.relaxation.p(0) < 1.0, "the free term runs too");
            let designer = InverseDesigner::new(
                &compiled,
                &param,
                standard_chain(&problem),
                VariationSpace::default(),
                config.clone(),
            );
            let theta0 = designer.initial_theta(&mut StdRng::seed_from_u64(3));
            let beta = BetaSchedule::new(config.beta_start, config.beta_end, config.iterations);
            let iteration = |theta: &[f64]| {
                designer.iteration(
                    theta,
                    0,
                    &beta,
                    &mut EvalScratch::new(),
                    &mut None,
                    &mut Vec::new(),
                    &mut CornerPolicy::default(),
                )
            };
            let at = iteration(&theta0);
            let v: Vec<f64> = (0..theta0.len())
                .map(|i| (0.37 * i as f64 + 0.11).sin())
                .collect();
            let vnorm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            let v: Vec<f64> = v.iter().map(|x| x / vnorm).collect();
            let ad: f64 = at.grad_theta.iter().zip(&v).map(|(g, d)| g * d).sum();
            let h = 1e-4;
            let shifted = |sign: f64| {
                let theta: Vec<f64> = theta0
                    .iter()
                    .zip(&v)
                    .map(|(t, d)| t + sign * h * d)
                    .collect();
                iteration(&theta).objective
            };
            let fd = (shifted(1.0) - shifted(-1.0)) / (2.0 * h);
            let scale = at.grad_theta.iter().map(|g| g * g).sum::<f64>().sqrt();

            let grid = compiled.problem().grid;
            let omega = compiled.problem().omega;
            let sf = SFactors::new(&grid, omega);
            let rho = param.forward(&theta0);
            let eps = compiled.eps_for(
                &standard_chain(&problem)
                    .forward_with_etch(
                        &rho,
                        &VariationCorner::nominal(),
                        false,
                        EtchProjection::new(beta.beta(0)),
                    )
                    .rho_fab,
                boson_fab::temperature::T_NOMINAL,
            );
            let plain = assemble_banded(&grid, &sf, &eps, omega).factor().unwrap();
            let stencil = StencilCache::build(&grid, &sf, omega);
            let mut diag = Vec::new();
            stencil.diag_into(&eps, &mut diag);
            let kappa = 10.0 * stencil.norm_inf(&diag) * inverse_norm_estimate(&plain);
            let window_rel = 2.0 * kappa * WINDOW_BACKWARD_TOL;
            let limit = 2e-3 * fd.abs() + (1e-6 + window_rel) * scale;
            assert!(
                (fd - ad).abs() <= limit,
                "{name}: ∇J·v = {ad:e} vs FD {fd:e} (limit {limit:e}, κ∞ ≈ {kappa:e})"
            );
        }
    }
}
