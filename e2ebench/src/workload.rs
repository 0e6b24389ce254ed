//! The three design-run workloads and everything they fix: device,
//! spectral axis, solver stack and the full `RunnerConfig`.
//!
//! Every field of every config is spelled out — no `::default()` — so a
//! later change of a library default is a measured code change instead of
//! a silent change of the workload.

use boson_core::baselines::{levelset_param, standard_chain, MethodSpec};
use boson_core::compiled::{CompiledProblem, RecycleConfig};
use boson_core::fabchain::FabChain;
use boson_core::objective::SpectralAggregation;
use boson_core::optimizer::AdamConfig;
use boson_core::problem::{bending, crossing, isolator, DeviceProblem};
use boson_core::runner::RunnerConfig;
use boson_core::schedule::RelaxationSchedule;
use boson_core::subspace::SubspaceConfig;
use boson_fab::{SpectralAxis, VariationSpace};
use boson_fdfd::sim::SolverStrategy;
use boson_param::LevelSetParam;

/// Optimisation iterations of every design run: `BaseRunConfig`'s
/// default. That is five subspace refresh periods and five factor-lag
/// windows (`refresh_every` = `max_lag` = 8), so a run is mostly the
/// steady state those mechanisms target, not their warm-up. Shorter runs
/// are not representative of the iterative stack: the crossing's
/// factorisations per iteration fall from 1.5 at 8 iterations to 1.0 at
/// 40, and its iteration time by a third.
pub const ITERATIONS: usize = 40;

/// Monte-Carlo samples of every post-fabrication evaluation.
pub const MC_SAMPLES: usize = 16;

/// Adam learning rate of the paper reproductions (`BaseRunConfig`).
const LR: f64 = 0.02;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bend, K = 1, direct per-corner factorisation (the paper-table path).
    BendDirect,
    /// Isolator, K = 1, preconditioned iterative + recycling.
    IsolatorFast,
    /// Crossing, K = 3 worst-case, iterative + recycling + subspace M = 7.
    CrossingBroadband,
}

/// Everything a design run needs, built by [`Workload::setup`] (the
/// `setup_s` stage).
pub struct Setup {
    /// Compiled device (one calibration per wavelength).
    pub compiled: CompiledProblem,
    /// Fabrication chain over the design region.
    pub chain: FabChain,
    /// Level-set parameterisation.
    pub param: LevelSetParam,
    /// Variation space (carries the spectral axis).
    pub space: VariationSpace,
    /// Seeded initial latent vector.
    pub theta0: Vec<f64>,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BendDirect,
        Workload::IsolatorFast,
        Workload::CrossingBroadband,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BendDirect => "bend-direct",
            Workload::IsolatorFast => "isolator-fast",
            Workload::CrossingBroadband => "crossing-broadband",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn problem(self) -> DeviceProblem {
        match self {
            Workload::BendDirect => bending(),
            Workload::IsolatorFast => isolator(),
            Workload::CrossingBroadband => crossing(),
        }
    }

    fn axis(self) -> SpectralAxis {
        match self {
            Workload::CrossingBroadband => SpectralAxis::around(0.02, 3),
            _ => SpectralAxis::single(),
        }
    }

    /// Compiles the device, builds the chain and the parameterisation and
    /// seeds `θ₀` — the work `setup_s` times.
    pub fn setup(self) -> Setup {
        let problem = self.problem();
        let axis = self.axis();
        let chain = standard_chain(&problem);
        let param = levelset_param(&problem, false);
        let theta0 = param.theta_from_geometry(&problem.seed);
        let compiled =
            CompiledProblem::compile_spectral(problem, axis).expect("device compilation failed");
        let space = VariationSpace {
            spectral: axis,
            ..VariationSpace::default()
        };
        Setup {
            compiled,
            chain,
            param,
            space,
            theta0,
        }
    }

    /// The full runner configuration at `threads` worker lanes.
    pub fn config(self, threads: usize, seed: u64) -> RunnerConfig {
        let method = MethodSpec::boson1(ITERATIONS);
        let disabled_subspace = SubspaceConfig {
            active_columns: None,
            refresh_every: 8,
            ema_decay: 0.6,
            objective_pressure: 0.25,
            gradient_pressure: 0.0,
        };
        let disabled_recycle = RecycleConfig {
            directions: 0,
            max_lag: 0,
            drift_tol: 0.0,
        };
        let (solver, spectral_agg, subspace, recycle) = match self {
            Workload::BendDirect => (
                SolverStrategy::Direct,
                SpectralAggregation::Mean,
                disabled_subspace,
                disabled_recycle,
            ),
            Workload::IsolatorFast => (
                SolverStrategy::preconditioned_iterative(),
                SpectralAggregation::Mean,
                disabled_subspace,
                RecycleConfig::enabled(),
            ),
            Workload::CrossingBroadband => (
                SolverStrategy::preconditioned_iterative(),
                SpectralAggregation::WorstCase,
                SubspaceConfig::with_active_columns(7),
                RecycleConfig::enabled(),
            ),
        };
        RunnerConfig {
            iterations: ITERATIONS,
            adam: AdamConfig {
                lr: LR * method.lr_scale,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
            },
            sampling: method.sampling,
            relaxation: RelaxationSchedule::over(method.relax_epochs),
            beta_start: 10.0,
            beta_end: 40.0,
            dense_objectives: method.dense_objectives,
            fab_aware: method.fab_aware,
            init: method.init,
            seed,
            threads,
            solver,
            spectral_agg,
            subspace,
            recycle,
        }
    }
}
