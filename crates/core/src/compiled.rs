//! Compiled benchmark: precomputed modes, sources, monitors and power
//! normalisation, plus the forward + adjoint evaluation of a permittivity
//! map.
//!
//! Compilation solves the port eigenmode problems once (mode shapes live
//! on the access waveguides, outside the design region, so they do not
//! change during optimisation), binds each wavelength's scaled sources
//! and modal-monitor forms into one [`WindowTerms`] — the only copy of
//! them after compile — and calibrates the launched power of every
//! excitation with a straight-waveguide reference run solved for the
//! terms' scaled source.
//!
//! Every single-ε evaluation runs one body: prepare the corner for its
//! wavelength's terms, [`SimWorkspace::solve_terms`], readings, adjoint
//! coefficients, [`SimWorkspace::solve_terms_adjoint`], then `∂F/∂ε`
//! over the rows those solves return. That costs one factorisation of
//! the design window's rows plus one solve per excitation and one per
//! excitation with an adjoint source when gradients are requested; a
//! direct evaluation solves only the window's rows unless the whole
//! field is read (see [`Evaluation::grad_eps`]). The fused iterative
//! batch of [`CompiledProblem::evaluate_corner_product`] takes its
//! right-hand sides, readings and adjoint sources from the same terms.
//!
//! # Spectral axis
//!
//! Ports, modes, sources and the launched-power normalisation are all
//! ω-dependent, so a broadband problem compiles **once per wavelength**:
//! [`CompiledProblem::compile_spectral`] calibrates every sample of a
//! [`SpectralAxis`] up front, and each evaluation entry point takes (or
//! defaults) an index into that axis. `K = 1`
//! ([`CompiledProblem::compile`]) reproduces the single-ω behaviour
//! bit-identically, and a finished-design wavelength sweep over a
//! spectrally-compiled problem costs `K` solves with **no** recompiles
//! (see [`crate::spectrum::wavelength_sweep`]).

use crate::fabchain::assemble_eps;
use crate::objective::{Readings, SpectralAggregation};
use crate::problem::{DeviceProblem, MonitorKind};
use boson_fab::SpectralAxis;
use boson_fdfd::monitor::ModalMonitor;
use boson_fdfd::operator::{scale_source_into, StencilCache};
use boson_fdfd::pml::SFactors;
use boson_fdfd::sim::{
    CornerContext, CornerSolveReport, FactorLag, FusedRecycle, SimWorkspace, SlabUse,
    SolverStrategy,
};
use boson_fdfd::source::ModalSource;
use boson_fdfd::window::{solve_reference, ReferenceFactor, SlabCache, WindowTerms};
use boson_num::banded::SingularMatrixError;
use boson_num::krylov::RecycleSpace;
use boson_num::pool;
use boson_num::{Array2, Complex64};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// A monitor of one excitation: modal (its form is in the calibration's
/// [`WindowTerms`], in monitor order) or a residual of modal readings.
#[derive(Debug, Clone)]
enum BoundMonitor {
    Modal,
    Residual(Vec<String>),
}

/// The result of evaluating one permittivity map.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Normalised monitor readings per excitation.
    pub readings: Readings,
    /// Scalar objective (maximise).
    pub objective: f64,
    /// Reported figure of merit.
    pub fom: f64,
    /// `∂objective/∂ε` on the grid (present when requested). Exact on
    /// every cell for the evaluations that solve the whole grid — the
    /// fabrication-nominal entry at the centre wavelength of
    /// [`CompiledProblem::evaluate_corner_product`], and the iterative
    /// strategies' nominal and batched columns. Every other direct
    /// evaluation solves only the design window's grid rows (see
    /// [`boson_fdfd::window`]): its gradient is exact on those rows and
    /// zero outside them, which covers the design region.
    pub grad_eps: Option<Array2<f64>>,
    /// What the corner solver did: factorisations, solves, iteration
    /// counts, residuals, whether the adaptive direct fallback fired.
    pub solve: CornerSolveReport,
}

/// Per-corner solver directions for
/// [`CompiledProblem::evaluate_eps_corner`]: the strategy plus the
/// nominal-preconditioner context the iterative path needs.
#[derive(Debug, Clone, Copy)]
pub struct CornerSolve<'a> {
    /// Solver strategy for this corner.
    pub strategy: SolverStrategy,
    /// Permittivity of the nominal corner this epoch (ω-independent —
    /// only the operator around it changes with the wavelength).
    pub nominal_eps: &'a Array2<f64>,
    /// Token identifying the nominal operator (typically the iteration).
    pub epoch: u64,
    /// This corner *is* the nominal corner.
    pub is_nominal: bool,
    /// Cached adaptive-policy decision: go straight to a direct factor.
    pub force_direct: bool,
    /// Index of this corner's wavelength in the compiled spectral axis
    /// (`0` for single-ω problems).
    pub omega_idx: usize,
}

/// Directions for evaluating the whole (fabrication corner × ω) cross
/// product — or any ω-major subset of it — in one call (see
/// [`CompiledProblem::evaluate_corner_product`]). Entries are flat over
/// the product; per-entry slices name each corner's wavelength, its
/// group-nominal status and its cached policy decision.
#[derive(Debug, Clone, Copy)]
pub struct CornerProductSolve<'a> {
    /// Solver strategy. [`SolverStrategy::Direct`] factors every column
    /// on its own, fanned out across `threads` lanes. The iterative
    /// strategies advance every non-nominal, non-pinned column through
    /// one fused lockstep batch, preconditioned by each ω's banded
    /// nominal factor; the tolerance/budget pair comes from the strategy.
    pub strategy: SolverStrategy,
    /// Permittivity of the nominal corner this epoch (ω-independent).
    pub nominal_eps: &'a Array2<f64>,
    /// Token identifying the nominal operator (typically the iteration).
    pub epoch: u64,
    /// Wavelength index of each entry in the compiled spectral axis
    /// (ω-grouped order keeps the fused preconditioner runs contiguous).
    pub omega_idx: &'a [usize],
    /// Per-entry flag: this corner is its ω group's fabrication-nominal
    /// corner (solved directly on that ω's nominal factor; its solutions
    /// become the group's warm starts).
    pub is_nominal: &'a [bool],
    /// Per-entry cached policy decisions: `true` pins a corner to the
    /// direct path.
    pub force_direct: &'a [bool],
    /// Worker lanes of the process-wide pool; ≤ 1 = serial. Under
    /// [`SolverStrategy::Direct`] the direct columns fan out over up to
    /// `threads` lanes, each with its own solver workspace. Under the
    /// iterative strategies the packed preconditioner sweeps split over
    /// them (see [`boson_fdfd::sim::FUSED_SPLIT_MIN_COLS`]), while the
    /// rare policy-pinned direct columns stay on the caller's workspace.
    pub threads: usize,
    /// When `Some((agg, fab_idx))`, the adjoint phase exploits the one
    /// structural advantage the fused product has over K single-ω
    /// batches: it sees **every** forward objective before any adjoint
    /// solve, so it
    /// can evaluate `agg`'s exact gradient weights per fabrication corner
    /// (`fab_idx[ci]` names each entry's corner; entries of one corner
    /// must appear in ascending-ω order, as in the ω-major product) and
    /// skip the adjoint solve of every batched entry whose weight is
    /// exactly zero — under [`SpectralAggregation::WorstCase`] that is
    /// `K − 1` of every corner's `K` wavelengths. Skipped entries return
    /// `grad_eps: None` (their gradient cannot reach the aggregated
    /// objective; callers weight gradients by the same `agg`, so the
    /// results are identical to computing and discarding them). Entries
    /// evaluated outside the batch (nominal, policy-pinned, fallbacks)
    /// always carry full gradients — under [`SolverStrategy::Direct`],
    /// every entry.
    ///
    /// A zero-weight entry whose (unused) adjoint solve *would have*
    /// missed its budget therefore never misses — so it is not
    /// re-evaluated directly and the caller's adaptive policy does not
    /// pin its corner (pinning a corner over a gradient that cannot
    /// reach the objective would waste factorisations).
    pub skip_zero_weight_adjoints: Option<(SpectralAggregation, &'a [usize])>,
    /// When `Some(keys)`, cross-iteration Krylov recycling is armed for
    /// this sweep: `keys[ci]` is entry `ci`'s **stable** identity across
    /// iterations (the runner passes each entry's global ω-major
    /// product-column index), naming which of the scratch's deflation
    /// stores the entry harvests into and deflates from. Stability
    /// matters because the batched subset shifts between iterations under
    /// the subspace scheduler — dormant columns keep stale-but-monitored
    /// stores that revalidate (or invalidate on an epoch jump) when the
    /// column re-enters. `None`, or a scratch whose
    /// [`RecycleConfig::directions`] is `0`, runs the batch exactly as
    /// before — bit-identically.
    pub recycle: Option<&'a [usize]>,
}

/// Cross-iteration solver acceleration knobs (see
/// [`CompiledProblem::evaluate_corner_product`] and
/// [`boson_fdfd::sim::FactorLag`]): consecutive robust-loop epochs solve
/// nearly-identical (corner × ω) systems, and this config arms the two
/// mechanisms that exploit it — per-(corner, ω) Krylov deflation stores
/// recycled across epochs, and lagged drift-monitored nominal factors.
/// Disabled by default; the disabled config is **bit-identical** to the
/// non-recycled pipeline (regression-tested).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecycleConfig {
    /// Deflation directions `W` retained per (corner, ω) store (forward
    /// and adjoint solves keep their own `W`). `0` disables recycling — and,
    /// together with `max_lag == 0`, the whole temporal axis.
    pub directions: usize,
    /// Maximum epochs a nominal banded factor may be reused past the
    /// epoch it was built at, and the maximum epoch gap a deflation
    /// store survives (dormant subspace columns re-entering within the
    /// gap keep their directions; beyond it the store self-invalidates).
    /// `0` keeps the per-epoch eager refactor.
    pub max_lag: u64,
    /// Relative nominal-diagonal drift `‖Δdiag‖∞ / ‖diag‖∞` beyond which
    /// a lag-kept factor is rebuilt regardless of age.
    pub drift_tol: f64,
}

impl Default for RecycleConfig {
    /// Disabled: eager refactors, no deflation — bit-identical to the
    /// pre-recycling pipeline.
    fn default() -> Self {
        Self {
            directions: 0,
            max_lag: 0,
            drift_tol: 0.0,
        }
    }
}

impl RecycleConfig {
    /// The production steady-state preset: a handful of deflation
    /// directions per column and factors lagged across the subspace
    /// scheduler's default refresh period, rebuilt at 5% diagonal
    /// drift. Eight epochs balances the refactor saving against
    /// preconditioner staleness (longer lags cost BiCGSTAB iterations
    /// faster than they save factorisations on the drifting
    /// steady-state workload; see `recycle_27corner_3wl`).
    pub fn enabled() -> Self {
        Self {
            directions: 4,
            max_lag: 8,
            drift_tol: 0.05,
        }
    }

    /// `true` when any temporal-axis mechanism is armed.
    pub fn is_enabled(&self) -> bool {
        self.directions > 0 || self.max_lag > 0
    }

    /// The lagged-factor half of the config (`None` when `max_lag == 0`).
    pub fn factor_lag(&self) -> Option<FactorLag> {
        (self.max_lag > 0).then_some(FactorLag {
            max_lag: self.max_lag,
            drift_tol: self.drift_tol,
        })
    }
}

/// Reusable buffers for repeated [`CompiledProblem::evaluate_eps_scratch`]
/// calls: one FDFD factor/solve workspace plus the field, adjoint,
/// reading and batch blocks. Keep one per worker thread; after the first
/// evaluation the entire solve path runs without heap allocation.
///
/// A single-ε evaluation solves its wavelength's [`WindowTerms`] through
/// [`SimWorkspace::solve_terms`] and
/// [`SimWorkspace::solve_terms_adjoint`], which return the rows of
/// [`SimWorkspace::window_unknowns`]: the design window's of a
/// window-only direct corner, the whole grid's otherwise.
#[derive(Debug, Default)]
pub struct EvalScratch {
    sim: SimWorkspace,
    /// Column-major field block, one column of the solved rows per
    /// excitation.
    fields: Vec<Complex64>,
    /// Column-major adjoint block, one column of the solved rows per
    /// excitation (zero where an excitation has no adjoint source).
    adj: Vec<Complex64>,
    /// Modal amplitude of every monitor form, in the order of the
    /// calibration's [`WindowTerms`].
    amps: Vec<Complex64>,
    /// Adjoint coefficient of every monitor form (same order).
    coef: Vec<Complex64>,
    /// Batched-sweep forward RHS / solution blocks (`n × n_excitations ×
    /// batch`).
    batch_rhs: Vec<Complex64>,
    /// Batched forward solutions.
    batch_x: Vec<Complex64>,
    /// Batched adjoint sources.
    batch_adj: Vec<Complex64>,
    /// Batched adjoint solutions.
    batch_adj_x: Vec<Complex64>,
    /// Per-ω warm-start snapshots (indexed by `omega_idx`): each slot
    /// holds the nominal corner's fields and adjoints at that wavelength,
    /// the warm starts for same-ω batched solves of the same epoch. Kept
    /// per ω (not as a single most-recent slot) so a **fused** (corner ×
    /// ω) batch can warm-start every column from its own wavelength's
    /// nominal solution simultaneously.
    warm: Vec<WarmSlot>,
    /// Forward-solve Krylov deflation stores, indexed by the stable
    /// product-column key (see [`CornerProductSolve::recycle`]).
    /// Empty until [`EvalScratch::configure_recycling`] arms recycling.
    recycle_fwd: Vec<RecycleSpace>,
    /// Adjoint-solve deflation stores: the adjoint right-hand sides span
    /// other Krylov directions than the forward ones, so the two never
    /// share a store.
    recycle_adj: Vec<RecycleSpace>,
    /// Batch-slot → store-key scratch for the recycled fused solves.
    recycle_keys: Vec<usize>,
    /// Directions per store (0 = recycling disabled).
    recycle_directions: usize,
    /// Epoch-gap tolerance stamped on every store.
    recycle_max_age: u64,
    /// Scratches of pool lanes `1..` for the direct columns of
    /// [`CompiledProblem::evaluate_corner_product`] (lane 0 is the
    /// caller's scratch); built on first use.
    lanes: Vec<EvalScratch>,
}

/// One wavelength's warm-start snapshot (see [`EvalScratch::warm`]).
#[derive(Debug, Default)]
struct WarmSlot {
    /// Epoch the snapshot belongs to; `None` = invalid.
    epoch: Option<u64>,
    /// The nominal corner's fields (`n × n_excitations`).
    fields: Vec<Complex64>,
    /// The nominal corner's adjoint solutions, unpacked to excitation
    /// order.
    adj: Vec<Complex64>,
}

impl WarmSlot {
    /// `true` when this snapshot warm-starts batches of `epoch`.
    fn valid_for(&self, epoch: u64) -> bool {
        self.epoch == Some(epoch)
    }
}

impl EvalScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms (or disarms) the temporal-axis mechanisms on this scratch:
    /// the lagged-nominal-factor policy on the embedded solver workspace
    /// and the per-(corner, ω) deflation stores that
    /// [`CompiledProblem::evaluate_corner_product`] recycles across
    /// epochs when the caller also passes stable column keys. The default
    /// (a default [`RecycleConfig`]) is bit-identical to never calling
    /// this.
    pub fn configure_recycling(&mut self, config: &RecycleConfig) {
        self.recycle_directions = config.directions;
        self.recycle_max_age = config.max_lag.max(1);
        if config.directions == 0 {
            self.recycle_fwd.clear();
            self.recycle_adj.clear();
        }
        self.sim.set_factor_lag(config.factor_lag());
    }

    /// Grows the forward and adjoint store pools to cover keys `0..count`,
    /// keeping existing stores (and their harvested directions) intact.
    /// Returns `true` when recycling is armed. Allocation-free once the
    /// pools cover the product.
    fn ensure_recycle_stores(&mut self, count: usize) -> bool {
        if self.recycle_directions == 0 {
            return false;
        }
        let (dirs, age) = (self.recycle_directions, self.recycle_max_age);
        for pool in [&mut self.recycle_fwd, &mut self.recycle_adj] {
            if pool.len() < count {
                pool.resize_with(count, || {
                    let mut s = RecycleSpace::new(dirs);
                    s.set_max_age(age);
                    s
                });
            }
        }
        true
    }
}

/// The ω-dependent half of a compiled benchmark: one wavelength's port
/// modes bound into sources and monitors, plus the launched-power
/// normalisation at that wavelength.
struct OmegaCal {
    omega: f64,
    /// Each excitation's named monitors.
    monitors: Vec<Vec<(String, BoundMonitor)>>,
    /// Launched power per excitation (straight-waveguide calibration).
    norm_power: Vec<f64>,
    /// The scaled sources and the modal monitors' forms: the one copy
    /// every evaluation at this wavelength solves for.
    terms: Arc<WindowTerms>,
}

/// A benchmark compiled against its background geometry, at one or more
/// operating wavelengths (see the module docs' *Spectral axis* section).
pub struct CompiledProblem {
    problem: DeviceProblem,
    /// The spectral axis this problem was compiled for.
    axis: SpectralAxis,
    /// One calibration per wavelength sample, ascending λ (single entry
    /// at the problem's own ω for [`CompiledProblem::compile`]).
    cals: Vec<OmegaCal>,
    /// Index of the nominal (centre) wavelength in `cals`.
    nominal_omega_idx: usize,
}

impl std::fmt::Debug for CompiledProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CompiledProblem({}, {} excitations, {} wavelengths)",
            self.problem.name,
            self.cals[self.nominal_omega_idx].terms.excitations(),
            self.cals.len()
        )
    }
}

/// Solves the port modes at `omega`, binds sources/monitors and runs the
/// straight-waveguide normalisation references — everything ω-dependent
/// about a compiled benchmark.
fn calibrate_omega(
    problem: &DeviceProblem,
    eps_bg: &Array2<f64>,
    omega: f64,
) -> Result<OmegaCal, SingularMatrixError> {
    let grid = problem.grid;
    let n = grid.n();
    // Solve modes at every port.
    let port_modes: Vec<_> = problem
        .ports
        .iter()
        .map(|p| p.solve_modes(&grid, eps_bg, omega, problem.mode_count))
        .collect();

    // Each excitation's scaled source and its modal monitors' forms.
    let sfactors = SFactors::new(&grid, omega);
    let mut rhs = vec![Complex64::ZERO; n * problem.excitations.len()];
    let mut jz = vec![Complex64::ZERO; n];
    let mut forms = Vec::new();
    let mut monitors = Vec::new();
    for (ei, exc) in problem.excitations.iter().enumerate() {
        let src_modes = &port_modes[exc.source_port];
        assert!(
            exc.source_mode < src_modes.len(),
            "{}: port {} supports {} modes at ω={omega:.4}, excitation needs mode {}",
            problem.name,
            problem.ports[exc.source_port].name,
            src_modes.len(),
            exc.source_mode
        );
        let source = ModalSource::new(
            problem.ports[exc.source_port].clone(),
            src_modes[exc.source_mode].clone(),
            exc.source_direction,
        );
        source.current_into(&grid, &mut jz);
        scale_source_into(&grid, &sfactors, omega, &jz, &mut rhs[ei * n..(ei + 1) * n]);
        let mut bound = Vec::new();
        for spec in &exc.monitors {
            let bm = match &spec.kind {
                MonitorKind::Modal {
                    port,
                    mode,
                    direction,
                } => {
                    let modes = &port_modes[*port];
                    assert!(
                        *mode < modes.len(),
                        "{}: monitor {} wants mode {} of port {} ({} available at ω={omega:.4})",
                        problem.name,
                        spec.name,
                        mode,
                        problem.ports[*port].name,
                        modes.len()
                    );
                    let monitor =
                        ModalMonitor::new(&grid, &problem.ports[*port], &modes[*mode], *direction);
                    forms.push((ei, monitor.form().clone()));
                    BoundMonitor::Modal
                }
                MonitorKind::Residual { subtract } => BoundMonitor::Residual(subtract.clone()),
            };
            bound.push((spec.name.clone(), bm));
        }
        monitors.push(bound);
    }
    let terms = Arc::new(WindowTerms::new(&grid, omega, rhs, forms));

    // Normalisation: straight-waveguide reference per excitation.
    let stencil = StencilCache::build(&grid, &sfactors, omega);
    let mut norm_power = Vec::new();
    for (ei, exc) in problem.excitations.iter().enumerate() {
        let port = &problem.ports[exc.source_port];
        let (field, _) = reference_field(problem, eps_bg, &stencil, &terms, ei)?;
        // Measure the launched mode 12 cells downstream.
        let shift: isize = match exc.source_direction {
            boson_fdfd::grid::Sign::Plus => 12,
            boson_fdfd::grid::Sign::Minus => -12,
        };
        let mut ref_port = port.clone();
        ref_port.plane = (port.plane as isize + shift) as usize;
        let mon = ModalMonitor::new(
            &grid,
            &ref_port,
            &port_modes[exc.source_port][exc.source_mode],
            exc.source_direction,
        );
        let p0 = mon.power(&field);
        assert!(p0 > 1e-12, "{}: zero launched power", problem.name);
        norm_power.push(p0);
    }

    Ok(OmegaCal {
        omega,
        monitors,
        norm_power,
        terms,
    })
}

/// The straight-waveguide normalisation reference of excitation `ei` of
/// `terms` (`stencil` built for their ω): the transverse ε line of
/// `eps_bg` at its source plane replicated along the propagation axis,
/// solved for the excitation's scaled source ([`solve_reference`]).
/// Returns the field and the factor it was solved on.
fn reference_field(
    problem: &DeviceProblem,
    eps_bg: &Array2<f64>,
    stencil: &StencilCache,
    terms: &WindowTerms,
    ei: usize,
) -> Result<(Vec<Complex64>, ReferenceFactor), SingularMatrixError> {
    let grid = problem.grid;
    let n = grid.n();
    let port = &problem.ports[problem.excitations[ei].source_port];
    let eps_ref = match port.axis {
        boson_fdfd::grid::Axis::X => {
            let line: Vec<f64> = (0..grid.ny).map(|iy| eps_bg[(iy, port.plane)]).collect();
            Array2::from_fn(grid.ny, grid.nx, |iy, _| line[iy])
        }
        boson_fdfd::grid::Axis::Y => {
            let line: Vec<f64> = (0..grid.nx).map(|ix| eps_bg[(port.plane, ix)]).collect();
            Array2::from_fn(grid.ny, grid.nx, |_, ix| line[ix])
        }
    };
    let mut diag = Vec::new();
    stencil.diag_into(&eps_ref, &mut diag);
    let mut field = terms.rhs()[ei * n..(ei + 1) * n].to_vec();
    let factor = solve_reference(stencil, &diag, &mut field)?;
    Ok((field, factor))
}

/// The nominal background permittivity every calibration shares (design
/// region void: ports sit on access waveguides, so it serves the mode
/// solves and the references).
fn background_eps(problem: &DeviceProblem) -> Array2<f64> {
    assemble_eps(
        &problem.background_solid,
        problem.design_origin,
        &Array2::zeros(problem.design_shape.0, problem.design_shape.1),
        300.0,
    )
}

impl CompiledProblem {
    /// Compiles `problem` at its single centre wavelength: solves port
    /// modes, builds sources/monitors and runs the normalisation
    /// references.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if a reference solve fails.
    ///
    /// # Panics
    ///
    /// Panics if a port supports fewer guided modes than the problem
    /// requests.
    pub fn compile(problem: DeviceProblem) -> Result<Self, SingularMatrixError> {
        Self::compile_spectral(problem, SpectralAxis::single())
    }

    /// Compiles `problem` across a whole [`SpectralAxis`]: modes, sources,
    /// monitors and launched-power calibration at **each** of the `K`
    /// wavelengths around the problem's centre. A `K = 1` axis is
    /// bit-identical to [`CompiledProblem::compile`].
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if a reference solve fails.
    ///
    /// # Panics
    ///
    /// Panics if a port supports fewer guided modes than the problem
    /// requests at any wavelength of the axis (the sweep left the guided
    /// regime — narrow the axis).
    pub fn compile_spectral(
        problem: DeviceProblem,
        axis: SpectralAxis,
    ) -> Result<Self, SingularMatrixError> {
        // ω-independent, so shared by every calibration.
        let eps_bg = background_eps(&problem);
        let cals = axis
            .omegas(problem.omega)
            .into_iter()
            .map(|om| calibrate_omega(&problem, &eps_bg, om))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            problem,
            axis,
            cals,
            nominal_omega_idx: axis.nominal_index(),
        })
    }

    /// The underlying problem definition.
    pub fn problem(&self) -> &DeviceProblem {
        &self.problem
    }

    /// The spectral axis this problem was compiled for.
    pub fn spectral_axis(&self) -> &SpectralAxis {
        &self.axis
    }

    /// Number of compiled wavelengths `K`.
    pub fn omega_count(&self) -> usize {
        self.cals.len()
    }

    /// The compiled angular frequencies, in calibration order (ascending
    /// λ, i.e. descending ω).
    pub fn omegas(&self) -> Vec<f64> {
        self.cals.iter().map(|c| c.omega).collect()
    }

    /// Index of the nominal (centre) wavelength.
    pub fn nominal_omega_idx(&self) -> usize {
        self.nominal_omega_idx
    }

    /// Launched-power calibration per excitation at the nominal
    /// wavelength.
    pub fn norm_power(&self) -> &[f64] {
        &self.cals[self.nominal_omega_idx].norm_power
    }

    /// Assembles the permittivity for a design-region density at
    /// temperature `t`.
    pub fn eps_for(&self, rho: &Array2<f64>, temperature: f64) -> Array2<f64> {
        assemble_eps(
            &self.problem.background_solid,
            self.problem.design_origin,
            rho,
            temperature,
        )
    }

    /// Evaluates a permittivity map: runs every excitation, reads the
    /// monitors and (optionally) produces `∂objective/∂ε` by the adjoint
    /// method, using the problem's own objective.
    ///
    /// Allocates a fresh [`EvalScratch`] per call; hot loops should keep
    /// one and use [`CompiledProblem::evaluate_eps_scratch`].
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if the operator factorisation
    /// fails.
    pub fn evaluate_eps(
        &self,
        eps: &Array2<f64>,
        with_grad: bool,
    ) -> Result<Evaluation, SingularMatrixError> {
        let mut scratch = EvalScratch::new();
        self.evaluate_eps_scratch(eps, with_grad, &self.problem.objective, &mut scratch)
    }

    /// The zero-allocation evaluation path: factors the design window's
    /// rows into the scratch's [`SimWorkspace`], solves **all**
    /// excitations' right-hand sides in one block, and (when `with_grad`)
    /// every adjoint system with a source in another before accumulating
    /// `∂objective/∂ε` (window-only: see [`Evaluation::grad_eps`]).
    ///
    /// After the scratch's first use with this problem, the factor-and-
    /// solve path performs no heap allocation (the returned [`Evaluation`]
    /// still owns its readings and gradient).
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if the operator factorisation
    /// fails.
    ///
    /// # Panics
    ///
    /// Panics if `eps` does not have the grid's shape.
    pub fn evaluate_eps_scratch(
        &self,
        eps: &Array2<f64>,
        with_grad: bool,
        spec: &crate::objective::ObjectiveSpec,
        scratch: &mut EvalScratch,
    ) -> Result<Evaluation, SingularMatrixError> {
        self.evaluate_eps_corner(eps, with_grad, spec, scratch, None)
    }

    /// [`CompiledProblem::evaluate_eps_scratch`] at an explicit wavelength
    /// of the compiled spectral axis: a direct factor-and-solve against
    /// the `omega_idx`-th calibration (sources, monitors and power
    /// normalisation all at that ω). This is the per-ω solve behind
    /// [`crate::spectrum::wavelength_sweep`].
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if the operator factorisation
    /// fails.
    ///
    /// # Panics
    ///
    /// Panics if `omega_idx` is out of range or `eps` does not have the
    /// grid's shape.
    pub fn evaluate_eps_omega(
        &self,
        eps: &Array2<f64>,
        with_grad: bool,
        spec: &crate::objective::ObjectiveSpec,
        scratch: &mut EvalScratch,
        omega_idx: usize,
    ) -> Result<Evaluation, SingularMatrixError> {
        self.evaluate_eps_impl(eps, with_grad, spec, scratch, None, omega_idx, None, false)
    }

    /// [`CompiledProblem::evaluate_eps_scratch`] with explicit per-corner
    /// solver directions: `None` (or a [`SolverStrategy::Direct`] corner)
    /// factors this operator as always, while a
    /// [`SolverStrategy::PreconditionedIterative`] corner factors only
    /// the nominal operator per epoch and solves this corner's forward
    /// and adjoint systems iteratively against that shared factor,
    /// falling back to a direct factorisation when the iteration misses
    /// its budget (reported in [`Evaluation::solve`]).
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if a factorisation fails.
    ///
    /// # Panics
    ///
    /// Panics if `eps` does not have the grid's shape.
    pub fn evaluate_eps_corner(
        &self,
        eps: &Array2<f64>,
        with_grad: bool,
        spec: &crate::objective::ObjectiveSpec,
        scratch: &mut EvalScratch,
        corner: Option<&CornerSolve<'_>>,
    ) -> Result<Evaluation, SingularMatrixError> {
        let omega_idx = corner.map_or(self.nominal_omega_idx, |cs| cs.omega_idx);
        self.evaluate_eps_impl(
            eps, with_grad, spec, scratch, corner, omega_idx, None, false,
        )
    }

    /// The design window's grid rows: every direct factor condenses the
    /// fixed slabs above and below them out (see [`boson_fdfd::window`]).
    fn window_rows(&self) -> std::ops::Range<usize> {
        let oy = self.problem.design_origin.0;
        oy..oy + self.problem.design_shape.0
    }

    /// The one body of every single-ε evaluation, at the `omega_idx`-th
    /// compiled wavelength: prepares the corner for that wavelength's
    /// [`WindowTerms`], solves them and reads the monitors
    /// ([`SimWorkspace::solve_terms`]), solves the adjoint of the
    /// objective's monitor coefficients
    /// ([`SimWorkspace::solve_terms_adjoint`]) and accumulates `∂F/∂ε`
    /// over the rows those solves return. `lent` carries a direct
    /// fan-out's shared slab cache (see
    /// [`CompiledProblem::evaluate_direct_columns`]). A direct corner
    /// solves only the design window's rows unless `full` (see
    /// [`Evaluation::grad_eps`]); the iterative strategies' corners solve
    /// the whole grid.
    #[allow(clippy::too_many_arguments)] // the entry points' arguments, passed through
    fn evaluate_eps_impl(
        &self,
        eps: &Array2<f64>,
        with_grad: bool,
        spec: &crate::objective::ObjectiveSpec,
        scratch: &mut EvalScratch,
        corner: Option<&CornerSolve<'_>>,
        omega_idx: usize,
        lent: Option<&SlabCache>,
        full: bool,
    ) -> Result<Evaluation, SingularMatrixError> {
        let grid = self.problem.grid;
        let cal = &self.cals[omega_idx];
        let sim = &mut scratch.sim;
        sim.set_window_rows(Some(self.window_rows()));
        // Lent slabs come only with the direct fan-out's columns.
        let iterative =
            corner.filter(|cs| lent.is_none() && cs.strategy.iterative_params().is_some());
        match iterative {
            Some(cs) => {
                let ctx = CornerContext {
                    nominal_eps: cs.nominal_eps,
                    epoch: cs.epoch,
                    is_nominal: cs.is_nominal,
                    force_direct: cs.force_direct,
                    terms: Some(&cal.terms),
                };
                sim.prepare_corner(grid, cal.omega, eps, cs.strategy, Some(&ctx))?
            }
            None => sim.factor_terms(grid, eps, &cal.terms, full, lent)?,
        }
        sim.solve_terms(&mut scratch.fields, &mut scratch.amps)?;
        let readings = readings_from_amps(cal, &scratch.amps);
        let objective = spec.objective(&readings);
        let fom = spec.fom(&readings);
        let grad_eps = if with_grad {
            let dr = self.reading_grads(spec, omega_idx, &readings);
            adjoint_coefs_into(cal, &dr, &scratch.amps, &mut scratch.coef);
            sim.solve_terms_adjoint(&scratch.coef, &mut scratch.adj)?;
            let rows = sim.window_unknowns().len();
            let mut total = Array2::zeros(grid.ny, grid.nx);
            for (ei, (ez, lambda)) in scratch
                .fields
                .chunks_exact(rows)
                .zip(scratch.adj.chunks_exact(rows))
                .enumerate()
            {
                if cal.terms.adjoint_active(&scratch.coef, ei) {
                    sim.grad_eps_accumulate_window(ez, lambda, &mut total);
                }
            }
            Some(total)
        } else {
            None
        };

        // Snapshot the iterative nominal corner's whole-grid solutions
        // into this ω's warm slot: they seed (warm-start) the batched
        // iterative solves of every other corner of this wavelength this
        // epoch.
        if let Some(cs) = iterative.filter(|cs| cs.is_nominal && with_grad) {
            if scratch.warm.len() <= omega_idx {
                scratch.warm.resize_with(omega_idx + 1, WarmSlot::default);
            }
            let warm = &mut scratch.warm[omega_idx];
            warm.fields.clear();
            warm.fields.extend_from_slice(&scratch.fields);
            warm.adj.clear();
            warm.adj.extend_from_slice(&scratch.adj);
            warm.epoch = Some(cs.epoch);
        }

        Ok(Evaluation {
            readings,
            objective,
            fom,
            grad_eps,
            solve: scratch.sim.last_report().clone(),
        })
    }

    /// Evaluates the whole (fabrication corner × ω) cross product — the
    /// one multi-column evaluator behind every [`SolverStrategy`].
    ///
    /// Under [`SolverStrategy::Direct`] every column is a plain direct
    /// factor-and-solve, and the columns fan out over up to `set.threads`
    /// lanes of the process-wide `boson_num::pool`, each lane with its
    /// own [`EvalScratch`] (lane 0 is `scratch`; the others live inside
    /// it and are built on first use). Every direct factor condenses the
    /// fixed slabs around the design window out of the operator (see
    /// [`boson_fdfd::window`]); with several lanes, the slabs all columns
    /// need are built on `scratch` first and its slab cache is lent to
    /// every lane. Columns are independent and cached slabs equal fresh
    /// ones bit for bit, so any lane count is bit-identical.
    ///
    /// One direct column solves the whole grid: the fabrication-nominal
    /// entry at the centre wavelength (`is_nominal[ci] && omega_idx[ci] ==`
    /// [`CompiledProblem::nominal_omega_idx`]), whose `∂F/∂ε` the runner
    /// sums over every cell into the temperature gradient of its
    /// worst-case search; only its slabs keep their factors. Every other
    /// direct column is window-only: its sources and monitors come
    /// condensed from the slab cache, so it solves only the window's rows
    /// and its gradient is zero outside them (see [`Evaluation::grad_eps`]).
    ///
    /// Under the iterative strategies each ω's nominal corner is
    /// evaluated first on `scratch` (refreshing that ω's factor and
    /// snapshotting its warm starts), policy-pinned columns solve
    /// directly, and **all** remaining columns — every corner of every
    /// wavelength, forwards and then adjoints — advance through **one**
    /// fused lockstep batch, each column preconditioned by its own ω's
    /// nominal factor and stencil-applied through its own ω's couplings.
    /// When the packed column count is large enough, the fused
    /// preconditioner sweeps split across `set.threads` lanes
    /// (bit-identical at any worker count). Budget misses fall back to a
    /// direct factorisation per (corner, ω), bit-identical to
    /// [`SolverStrategy::Direct`], and are flagged in
    /// [`Evaluation::solve`] so the caller's adaptive policy can pin them.
    ///
    /// Every direct column — the `Direct` fan-out, the pinned columns,
    /// both phases' budget misses and the adjoint skip's consistency pass
    /// — goes through one private direct-columns path, one call per
    /// phase.
    ///
    /// Returns one [`Evaluation`] per entry of `epss`, in order.
    ///
    /// # Partial products
    ///
    /// Nothing here requires the *full* cross product: the entries may be
    /// any subset of it — this is how the adaptive corner-subspace
    /// scheduler ([`crate::subspace`]) evaluates only its active columns,
    /// reusing the fused batch unchanged. Two caveats for subset callers:
    /// entries of one fabrication corner must appear in ascending-ω order
    /// when `skip_zero_weight_adjoints` is on (any ω-major subset
    /// qualifies; debug-asserted), and warm starts engage only when every
    /// ω present carries this epoch's nominal snapshot — which is why the
    /// scheduler keeps each ω's fabrication-nominal entry (`is_nominal`)
    /// in every schedule.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if a required factorisation fails
    /// (among the direct columns, the first failing one in column order).
    ///
    /// # Panics
    ///
    /// Panics if the per-entry slices of `set` disagree with `epss` in
    /// length, an `omega_idx` is out of range, or the product spans more
    /// than [`boson_fdfd::sim::MAX_OMEGA_SLOTS`] wavelengths.
    pub fn evaluate_corner_product(
        &self,
        epss: &[Array2<f64>],
        with_grad: bool,
        spec: &crate::objective::ObjectiveSpec,
        scratch: &mut EvalScratch,
        set: &CornerProductSolve<'_>,
    ) -> Result<Vec<Evaluation>, SingularMatrixError> {
        let grid = self.problem.grid;
        let n = grid.n();
        let count = epss.len();
        assert_eq!(set.omega_idx.len(), count, "ω index count mismatch");
        assert_eq!(set.is_nominal.len(), count, "nominal flag count mismatch");
        assert_eq!(set.force_direct.len(), count, "policy flag count mismatch");
        let strategy = set.strategy;
        let all_direct = strategy.iterative_params().is_none();
        let mut evals: Vec<Option<Evaluation>> = (0..count).map(|_| None).collect();

        // Iterative strategies: each ω's nominal corner first — it
        // refreshes that wavelength's shared factor and snapshots its
        // warm-start fields.
        for ci in 0..count {
            if all_direct || !set.is_nominal[ci] {
                continue;
            }
            let cs = CornerSolve {
                strategy,
                nominal_eps: set.nominal_eps,
                epoch: set.epoch,
                is_nominal: true,
                force_direct: false,
                omega_idx: set.omega_idx[ci],
            };
            evals[ci] =
                Some(self.evaluate_eps_corner(&epss[ci], with_grad, spec, scratch, Some(&cs))?);
        }
        // Direct columns: all of them under `Direct`, fanned over
        // `set.threads` lanes; the policy-pinned ones otherwise. Pinned
        // columns are rare, so they stay on the caller's scratch rather
        // than paying another lane workspace (a banded LU plus assembly),
        // as do the budget-miss fallbacks and the consistency pass below.
        let direct: Vec<(usize, Option<&CornerSolveReport>)> = (0..count)
            .filter(|&ci| evals[ci].is_none() && (all_direct || set.force_direct[ci]))
            .map(|ci| (ci, None))
            .collect();
        let lanes = if all_direct { set.threads } else { 1 };
        self.evaluate_direct_columns(
            epss, &direct, with_grad, spec, scratch, set, lanes, &mut evals,
        )?;

        // Everything else — all remaining (corner, ω) pairs — advances in
        // one fused lockstep batch.
        let batched: Vec<usize> = (0..count).filter(|ci| evals[*ci].is_none()).collect();
        if !batched.is_empty() {
            // The batch's wavelengths, in first-appearance order.
            let mut omegas_used: Vec<usize> = Vec::new();
            for &ci in &batched {
                if !omegas_used.contains(&set.omega_idx[ci]) {
                    omegas_used.push(set.omega_idx[ci]);
                }
            }
            let omega_vals: Vec<f64> = omegas_used.iter().map(|&oi| self.cals[oi].omega).collect();
            let extra_factorizations = scratch.sim.fused_batch_begin(
                grid,
                &omega_vals,
                set.nominal_eps,
                set.epoch,
                strategy,
            )?;
            // Batch-local ω index per batched corner.
            let batch_omega: Vec<usize> = batched
                .iter()
                .map(|&ci| {
                    omegas_used
                        .iter()
                        .position(|&oi| oi == set.omega_idx[ci])
                        .expect("ω registered above")
                })
                .collect();
            for (slot, &ci) in batched.iter().enumerate() {
                scratch.sim.fused_batch_push(&epss[ci], batch_omega[slot]);
            }

            let nexc = self.cals[0].terms.excitations();
            let bl = n * nexc; // block length per corner
            let bcols = batched.len() * bl;
            scratch.batch_rhs.clear();
            scratch.batch_rhs.resize(bcols, Complex64::ZERO);
            scratch.batch_x.clear();
            scratch.batch_x.resize(bcols, Complex64::ZERO);
            // Warm starts: every batch wavelength must carry this epoch's
            // nominal snapshot (the full cross product always does — each
            // ω group contains its fabrication-nominal corner).
            let warm = with_grad
                && omegas_used
                    .iter()
                    .all(|&oi| scratch.warm.get(oi).is_some_and(|w| w.valid_for(set.epoch)));
            // Each corner's right-hand sides are its wavelength's terms.
            for (slot, &ci) in batched.iter().enumerate() {
                scratch.batch_rhs[slot * bl..(slot + 1) * bl]
                    .copy_from_slice(self.cals[set.omega_idx[ci]].terms.rhs());
                if warm {
                    scratch.batch_x[slot * bl..(slot + 1) * bl]
                        .copy_from_slice(&scratch.warm[set.omega_idx[ci]].fields);
                }
            }
            // Arm cross-iteration recycling when the caller supplied
            // stable column keys and the scratch carries configured
            // stores; map each batch slot to its entry's key once (both
            // phases share the mapping).
            let recycling = match set.recycle {
                Some(keys) => {
                    assert_eq!(keys.len(), count, "recycle key count mismatch");
                    let span = batched.iter().map(|&ci| keys[ci] + 1).max().unwrap_or(0);
                    scratch.ensure_recycle_stores(span)
                }
                None => false,
            };
            if recycling {
                let keys = set.recycle.expect("recycling implies keys");
                scratch.recycle_keys.clear();
                scratch
                    .recycle_keys
                    .extend(batched.iter().map(|&ci| keys[ci]));
            }
            {
                let EvalScratch {
                    sim,
                    batch_rhs,
                    batch_x,
                    recycle_fwd,
                    recycle_keys,
                    ..
                } = &mut *scratch;
                sim.fused_batch_solve(
                    batch_rhs,
                    batch_x,
                    nexc,
                    warm,
                    set.threads,
                    recycling.then_some(FusedRecycle {
                        spaces: recycle_fwd,
                        keys: recycle_keys,
                        epoch: set.epoch,
                    }),
                );
            }

            // Forward-phase budget misses re-evaluate directly.
            let forward_reports = scratch.sim.batch_reports().to_vec();
            let missed: Vec<(usize, Option<&CornerSolveReport>)> = batched
                .iter()
                .zip(&forward_reports)
                .filter(|(_, report)| !report.converged)
                .map(|(&ci, report)| (ci, Some(report)))
                .collect();
            self.evaluate_direct_columns(
                epss, &missed, with_grad, spec, scratch, set, 1, &mut evals,
            )?;

            // Readings phase for the surviving corners, each against its
            // own wavelength's calibration.
            let mut partials: Vec<(usize, usize, Readings, f64, f64)> = Vec::new();
            for (slot, &ci) in batched.iter().enumerate() {
                if evals[ci].is_some() {
                    continue; // fell back; its adjoint columns stay zero
                }
                let cal = &self.cals[set.omega_idx[ci]];
                let fields = &scratch.batch_x[slot * bl..(slot + 1) * bl];
                cal.terms.read_into(fields, &mut scratch.amps);
                let readings = readings_from_amps(cal, &scratch.amps);
                let objective = spec.objective(&readings);
                let fom = spec.fom(&readings);
                partials.push((slot, ci, readings, objective, fom));
            }

            // With every forward objective in hand, the aggregation's
            // exact gradient weights are known — drop the adjoint solves
            // of zero-weight entries when the caller opted in.
            let needs_grad = match set.skip_zero_weight_adjoints {
                Some((agg, fab_idx)) if with_grad => {
                    let mut obj_of: Vec<f64> = evals
                        .iter()
                        .map(|ev| ev.as_ref().map_or(0.0, |ev| ev.objective))
                        .collect();
                    for &(_, ci, _, objective, _) in &partials {
                        obj_of[ci] = objective;
                    }
                    weighted_entries(agg, fab_idx, set.omega_idx, &obj_of)
                }
                _ => vec![true; count],
            };

            // Adjoint phase: sources only for the entries whose gradient
            // can reach the objective (the rest stay zero-RHS columns,
            // which the lockstep solver completes in zero iterations).
            scratch.batch_adj.clear();
            scratch.batch_adj.resize(bcols, Complex64::ZERO);
            if with_grad {
                for (slot, ci, readings, _, _) in &partials {
                    if !needs_grad[*ci] {
                        continue;
                    }
                    let cal = &self.cals[set.omega_idx[*ci]];
                    let fields = &scratch.batch_x[slot * bl..(slot + 1) * bl];
                    let dr = self.reading_grads(spec, set.omega_idx[*ci], readings);
                    let adj = &mut scratch.batch_adj[slot * bl..(slot + 1) * bl];
                    cal.terms.read_into(fields, &mut scratch.amps);
                    adjoint_coefs_into(cal, &dr, &scratch.amps, &mut scratch.coef);
                    cal.terms.accumulate_adjoint(&scratch.coef, adj);
                }
                scratch.batch_adj_x.clear();
                scratch.batch_adj_x.resize(bcols, Complex64::ZERO);
                if warm {
                    for &(slot, ci, _, _, _) in &partials {
                        if !needs_grad[ci] {
                            continue;
                        }
                        scratch.batch_adj_x[slot * bl..(slot + 1) * bl]
                            .copy_from_slice(&scratch.warm[set.omega_idx[ci]].adj);
                    }
                }
                {
                    let EvalScratch {
                        sim,
                        batch_adj,
                        batch_adj_x,
                        recycle_adj,
                        recycle_keys,
                        ..
                    } = &mut *scratch;
                    // The fused operator is complex-symmetric, so the
                    // adjoint rides the same apply — but its Krylov
                    // directions come from a different right-hand-side
                    // family, so the adjoint keeps its own stores.
                    sim.fused_batch_solve(
                        batch_adj,
                        batch_adj_x,
                        nexc,
                        warm,
                        set.threads,
                        recycling.then_some(FusedRecycle {
                            spaces: recycle_adj,
                            keys: recycle_keys,
                            epoch: set.epoch,
                        }),
                    );
                }
            }
            let merged_reports = scratch.sim.batch_reports().to_vec();

            let mut missed: Vec<(usize, Option<&CornerSolveReport>)> = Vec::new();
            for (slot, ci, readings, objective, fom) in partials {
                let report = &merged_reports[slot];
                if !report.converged {
                    // Adjoint-phase budget miss: full direct re-evaluation.
                    missed.push((ci, Some(report)));
                    continue;
                }
                let grad_eps = if with_grad && needs_grad[ci] {
                    let mut total = Array2::zeros(grid.ny, grid.nx);
                    let fields = &scratch.batch_x[slot * bl..(slot + 1) * bl];
                    let lambdas = &scratch.batch_adj_x[slot * bl..(slot + 1) * bl];
                    for ei in 0..nexc {
                        // Inactive excitations solved λ = 0 exactly and
                        // contribute nothing; accumulation runs through
                        // this corner's own ω (its ω² and stretch
                        // factors).
                        scratch.sim.fused_grad_eps_accumulate(
                            batch_omega[slot],
                            &fields[ei * n..(ei + 1) * n],
                            &lambdas[ei * n..(ei + 1) * n],
                            &mut total,
                        );
                    }
                    Some(total)
                } else {
                    None
                };
                let mut solve = report.clone();
                solve.factorizations = 0;
                evals[ci] = Some(Evaluation {
                    readings,
                    objective,
                    fom,
                    grad_eps,
                    solve,
                });
            }
            self.evaluate_direct_columns(
                epss, &missed, with_grad, spec, scratch, set, 1, &mut evals,
            )?;

            // Consistency pass for the adjoint skip: an adjoint-phase
            // fallback re-evaluates its corner *directly*, nudging its
            // objective within solver tolerance — which can move a
            // group's aggregation argmin onto an entry whose adjoint was
            // skipped. Re-derive the weights from the final objectives
            // and give every weighted-but-gradient-less entry a plain
            // direct evaluation — NOT a budget miss, so `fell_back` stays
            // unset and the caller's adaptive policy does not pin its
            // corner. Each pass only ever adds gradients, so the loop
            // terminates (and in practice never runs — it needs an
            // adjoint-only budget miss landing between two nearly-tied
            // wavelengths).
            if with_grad {
                if let Some((agg, fab_idx)) = set.skip_zero_weight_adjoints {
                    loop {
                        // Every entry is evaluated by now.
                        let objectives: Vec<f64> =
                            evals.iter().flatten().map(|ev| ev.objective).collect();
                        let weighted = weighted_entries(agg, fab_idx, set.omega_idx, &objectives);
                        let has_grad =
                            |ci: usize| evals[ci].as_ref().is_some_and(|ev| ev.grad_eps.is_some());
                        let missing: Vec<(usize, Option<&CornerSolveReport>)> = (0..count)
                            .filter(|&ci| weighted[ci] && !has_grad(ci))
                            .map(|ci| (ci, None))
                            .collect();
                        if missing.is_empty() {
                            break;
                        }
                        self.evaluate_direct_columns(
                            epss, &missing, with_grad, spec, scratch, set, 1, &mut evals,
                        )?;
                    }
                }
            }

            // Attribute nominal refreshes performed by `fused_batch_begin`
            // (only possible when some ω group has no nominal corner) to
            // the first batched evaluation.
            if extra_factorizations > 0 {
                if let Some(ev) = evals[batched[0]].as_mut() {
                    ev.solve.factorizations += extra_factorizations;
                }
            }
        }

        Ok(evals
            .into_iter()
            .map(|e| e.expect("every corner evaluated"))
            .collect())
    }

    /// Evaluates the entries of `epss` that `cols` names as plain direct
    /// factor-and-solves into `evals` — the one direct path of
    /// [`CompiledProblem::evaluate_corner_product`] — one pool part per
    /// column on up to `lanes` lanes. Lane 0 runs on `scratch`, lanes
    /// `1..` on the scratches kept in its `lanes` field (built on first
    /// use, then reused). With more than one lane, every slab the columns
    /// need is built on `scratch` before the dispatch and its cache lent
    /// read-only to all lanes ([`SimWorkspace::take_window_slabs`]); one
    /// lane builds on demand. Every column is independent, so the lane
    /// count never changes a result. The first failing column's error, in
    /// `cols` order, is returned.
    ///
    /// A column paired with its failed batched attempt's report is a
    /// budget-miss fallback: its report takes `used_iterative`,
    /// `fell_back` and the attempt's worst iteration count and residual,
    /// and adds the attempt's iterations and solves to its own, as a
    /// per-corner budget miss does.
    /// Every batched ω's nominal factor is fresh for the epoch, so the
    /// result is bit-identical to the direct strategy's.
    #[allow(clippy::too_many_arguments)] // the product call's context, passed through
    fn evaluate_direct_columns(
        &self,
        epss: &[Array2<f64>],
        cols: &[(usize, Option<&CornerSolveReport>)],
        with_grad: bool,
        spec: &crate::objective::ObjectiveSpec,
        scratch: &mut EvalScratch,
        set: &CornerProductSolve<'_>,
        lanes: usize,
        evals: &mut [Option<Evaluation>],
    ) -> Result<(), SingularMatrixError> {
        let pool = pool::global();
        let lanes = lanes.min(cols.len()).min(pool.lanes()).max(1);
        // Several lanes: build every slab the columns need on the
        // caller's workspace first and lend that one cache to all lanes.
        // The fabrication-nominal entry at the centre wavelength solves the
        // whole grid: the runner's temperature gradient sums its `∂F/∂ε`
        // over every cell. Every other direct column is window-only.
        let full = |ci: usize| set.is_nominal[ci] && set.omega_idx[ci] == self.nominal_omega_idx;
        let slabs = (lanes > 1).then(|| {
            scratch.sim.set_window_rows(Some(self.window_rows()));
            let corners = cols.iter().map(|&(ci, _)| {
                let terms = &self.cals[set.omega_idx[ci]].terms;
                let slab_use = SlabUse {
                    terms,
                    full: full(ci),
                };
                (slab_use, &epss[ci])
            });
            scratch
                .sim
                .take_window_slabs(self.problem.grid, lanes, corners)
        });
        let mut extra = std::mem::take(&mut scratch.lanes);
        if extra.len() < lanes - 1 {
            extra.resize_with(lanes - 1, EvalScratch::new);
        }
        let mut lane_scratch: Vec<&mut EvalScratch> = std::iter::once(&mut *scratch)
            .chain(extra.iter_mut())
            .take(lanes)
            .collect();
        let results = pool.map_with(cols.to_vec(), &mut lane_scratch, |(ci, attempt), lane| {
            let mut ev = self.evaluate_eps_impl(
                &epss[ci],
                with_grad,
                spec,
                lane,
                None,
                set.omega_idx[ci],
                slabs.as_ref(),
                full(ci),
            )?;
            if let Some(attempt) = attempt {
                ev.solve.used_iterative = true;
                ev.solve.fell_back = true;
                ev.solve.max_iterations = ev.solve.max_iterations.max(attempt.max_iterations);
                ev.solve.max_residual = ev.solve.max_residual.max(attempt.max_residual);
                ev.solve.total_iterations += attempt.total_iterations;
                ev.solve.solves += attempt.solves;
            }
            Ok((ci, ev))
        });
        scratch.lanes = extra;
        if let Some(slabs) = slabs {
            scratch.sim.restore_window_slabs(slabs);
        }
        for result in results {
            let (ci, ev) = result?;
            evals[ci] = Some(ev);
        }
        Ok(())
    }

    /// `∂objective/∂reading` per excitation, with residual-monitor
    /// gradients folded back into the modal readings they subtract (the
    /// monitor topology is the `omega_idx`-th calibration's).
    fn reading_grads(
        &self,
        spec: &crate::objective::ObjectiveSpec,
        omega_idx: usize,
        readings: &Readings,
    ) -> Vec<HashMap<String, f64>> {
        let mut dr: Vec<HashMap<String, f64>> = vec![HashMap::new(); readings.len()];
        for (e, m, g) in spec.objective_grad(readings) {
            *dr[e].entry(m).or_default() += g;
        }
        for (ei, mons) in self.cals[omega_idx].monitors.iter().enumerate() {
            let mut updates: Vec<(String, f64)> = Vec::new();
            for (name, mon) in mons {
                if let BoundMonitor::Residual(subtract) = mon {
                    if let Some(&gres) = dr[ei].get(name) {
                        for s in subtract {
                            updates.push((s.clone(), -gres));
                        }
                    }
                }
            }
            for (name, g) in updates {
                *dr[ei].entry(name).or_default() += g;
            }
        }
        dr
    }
}

/// Which product entries `agg` weighs: `false` where an entry's exact
/// aggregation weight within its fabrication corner (`fab_idx`) is zero
/// at the entries' `objectives` — the adjoints that the fused product's
/// skip drops and whose gradients its consistency pass restores.
fn weighted_entries(
    agg: SpectralAggregation,
    fab_idx: &[usize],
    omega_idx: &[usize],
    objectives: &[f64],
) -> Vec<bool> {
    assert_eq!(fab_idx.len(), objectives.len(), "fab_idx length");
    let nfab = fab_idx.iter().max().map_or(0, |m| m + 1);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); nfab];
    for (ci, &f) in fab_idx.iter().enumerate() {
        groups[f].push(ci);
    }
    // The weight↔entry correspondence assumes each corner's entries
    // arrive ω-ascending (the ω-major product — full or any subset of
    // it — does).
    debug_assert!(
        groups
            .iter()
            .all(|g| g.windows(2).all(|w| omega_idx[w[0]] < omega_idx[w[1]])),
        "corner group entries must be in ascending-ω order"
    );
    let mut weighted = vec![true; objectives.len()];
    for group in groups.iter().filter(|g| !g.is_empty()) {
        let values: Vec<f64> = group.iter().map(|&ci| objectives[ci]).collect();
        let mut weights = vec![0.0; group.len()];
        agg.weights_into_masked(&values, &vec![true; group.len()], &mut weights);
        for (&ci, &w) in group.iter().zip(&weights) {
            weighted[ci] = w != 0.0;
        }
    }
    weighted
}

/// The modal monitors of one wavelength's calibration, in the order of
/// its [`WindowTerms`]' forms: `(excitation, name)`.
fn modal_monitors(cal: &OmegaCal) -> impl Iterator<Item = (usize, &String)> {
    cal.monitors.iter().enumerate().flat_map(|(ei, mons)| {
        mons.iter().filter_map(move |(name, mon)| match mon {
            BoundMonitor::Modal => Some((ei, name)),
            BoundMonitor::Residual(_) => None,
        })
    })
}

/// Normalised monitor readings from the modal amplitudes `amps` (in
/// [`modal_monitors`] order): modal powers, then the residual monitors.
fn readings_from_amps(cal: &OmegaCal, amps: &[Complex64]) -> Readings {
    let mut readings: Readings = vec![HashMap::new(); cal.monitors.len()];
    for ((ei, name), a) in modal_monitors(cal).zip(amps) {
        readings[ei].insert(name.clone(), a.norm_sqr() / cal.norm_power[ei]);
    }
    for (map, mons) in readings.iter_mut().zip(&cal.monitors) {
        for (name, mon) in mons {
            if let BoundMonitor::Residual(subtract) = mon {
                let total: f64 = subtract.iter().map(|s| map[s]).sum();
                map.insert(name.clone(), 1.0 - total);
            }
        }
    }
    readings
}

/// The adjoint coefficient of every modal monitor (in [`modal_monitors`]
/// order): the Wirtinger gradient of `g·|A|²/P` is `conj(A)·g/P` times
/// the monitor's form, for the reading gradient `g` of `dr`; zero where
/// `g` is absent or zero.
fn adjoint_coefs_into(
    cal: &OmegaCal,
    dr: &[HashMap<String, f64>],
    amps: &[Complex64],
    coef: &mut Vec<Complex64>,
) {
    coef.clear();
    coef.extend(
        modal_monitors(cal)
            .zip(amps)
            .map(|((ei, name), a)| match dr[ei].get(name) {
                Some(&g) if g != 0.0 => a.conj() * (g / cal.norm_power[ei]),
                _ => Complex64::ZERO,
            }),
    );
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::problem::{bending, crossing, isolator};
    use boson_fab::TemperatureModel;
    use boson_param::sdf::Geometry;
    use boson_param::{LevelSetConfig, LevelSetParam, Parameterization};

    fn seed_rho(p: &DeviceProblem, geo: &Geometry) -> Array2<f64> {
        let ls = LevelSetParam::new(
            p.design_shape.0,
            p.design_shape.1,
            p.grid.dx,
            LevelSetConfig {
                control_rows: 14,
                control_cols: 14,
                smoothing: 0.05,
            },
        );
        let theta = ls.theta_from_geometry(geo);
        ls.forward(&theta)
    }

    use crate::problem::DeviceProblem;

    #[test]
    fn bending_seed_transmits() {
        let p = bending();
        let c = CompiledProblem::compile(p).unwrap();
        let rho = seed_rho(c.problem(), &c.problem().seed.clone());
        let eps = c.eps_for(&rho, 300.0);
        let ev = c.evaluate_eps(&eps, false).unwrap();
        let trans = ev.readings[0]["trans"];
        let refl = ev.readings[0]["refl"];
        // The naive L-bend is lossy but must carry *some* light and not be
        // dominated by reflection.
        assert!(trans > 0.3, "seed bend transmission {trans}");
        assert!(refl < 0.6, "seed bend reflection {refl}");
        assert!(trans <= 1.1, "transmission should be ≲1: {trans}");
    }

    #[test]
    fn crossing_seed_transmits_straight_through() {
        let c = CompiledProblem::compile(crossing()).unwrap();
        let rho = seed_rho(c.problem(), &c.problem().seed.clone());
        let eps = c.eps_for(&rho, 300.0);
        let ev = c.evaluate_eps(&eps, false).unwrap();
        let trans = ev.readings[0]["trans"];
        assert!(trans > 0.4, "crossing seed transmission {trans}");
        // Symmetric crossing: crosstalk splits evenly and is modest.
        let xt = ev.readings[0]["xtalk_top"];
        let xb = ev.readings[0]["xtalk_bottom"];
        assert!((xt - xb).abs() < 0.05, "crosstalk asymmetry {xt} vs {xb}");
        assert!(xt < 0.3);
    }

    #[test]
    fn isolator_compiles_and_runs_both_directions() {
        let c = CompiledProblem::compile(isolator()).unwrap();
        let rho = seed_rho(c.problem(), &c.problem().seed.clone());
        let eps = c.eps_for(&rho, 300.0);
        let ev = c.evaluate_eps(&eps, false).unwrap();
        assert_eq!(ev.readings.len(), 2);
        for key in ["trans3", "trans1", "refl", "rad"] {
            assert!(
                ev.readings[0].contains_key(key),
                "missing fwd reading {key}"
            );
        }
        for key in ["leak0", "leak2", "reflb", "radb"] {
            assert!(
                ev.readings[1].contains_key(key),
                "missing bwd reading {key}"
            );
        }
        // Readings are physical: powers within [0, ~1].
        for map in &ev.readings {
            for (k, v) in map {
                assert!(*v > -0.2 && *v < 1.2, "{k} = {v}");
            }
        }
    }

    #[test]
    fn energy_accounting_roughly_conserved() {
        // trans + refl + rad = 1 by construction; the *physical* check is
        // that the residual (radiation) is not badly negative.
        let c = CompiledProblem::compile(bending()).unwrap();
        let rho = seed_rho(c.problem(), &c.problem().seed.clone());
        let eps = c.eps_for(&rho, 300.0);
        let ev = c.evaluate_eps(&eps, false).unwrap();
        let rad = ev.readings[0]["rad"];
        assert!(rad > -0.1, "radiation residual {rad} badly negative");
    }

    #[test]
    fn gradient_matches_finite_difference_through_full_pipeline() {
        let c = CompiledProblem::compile(bending()).unwrap();
        let p = c.problem().clone();
        let rho = seed_rho(&p, &p.seed.clone());
        let eps = c.eps_for(&rho, 300.0);
        let ev = c.evaluate_eps(&eps, true).unwrap();
        let grad = ev.grad_eps.as_ref().unwrap();
        let h = 1e-5;
        // Probe cells inside the design region.
        let (oy, ox) = p.design_origin;
        for &(dy, dx_) in &[(14usize, 14usize), (10, 18), (18, 10)] {
            let (iy, ix) = (oy + dy, ox + dx_);
            let mut ep = eps.clone();
            ep[(iy, ix)] += h;
            let op = c.evaluate_eps(&ep, false).unwrap().objective;
            ep[(iy, ix)] -= 2.0 * h;
            let om_ = c.evaluate_eps(&ep, false).unwrap().objective;
            let fd = (op - om_) / (2.0 * h);
            let ad = grad[(iy, ix)];
            assert!(
                (fd - ad).abs() < 1e-5 + 5e-3 * fd.abs().max(ad.abs()),
                "objective grad at ({iy},{ix}): fd={fd} ad={ad}"
            );
        }
    }

    /// The bend compiled at 3 wavelengths, and its seed permittivity with
    /// the solid cells shifted by each of `deltas` (one fabrication
    /// corner each; `deltas[0] = 0.0` is the nominal one).
    fn spectral_bend(deltas: &[f64]) -> (CompiledProblem, Vec<Array2<f64>>) {
        let axis = boson_fab::SpectralAxis::around(0.02, 3);
        let c = CompiledProblem::compile_spectral(bending(), axis).unwrap();
        let rho = seed_rho(c.problem(), &c.problem().seed.clone());
        let nominal = c.eps_for(&rho, 300.0);
        let fab = deltas
            .iter()
            .map(|&delta| nominal.map(|&v| if v > 2.0 { v + delta } else { v }))
            .collect();
        (c, fab)
    }

    /// Evaluates the ω-major (fabrication corner × ω) product of `fab`
    /// (corner 0 nominal) with `strategy` and, when `skip`, the
    /// WorstCase zero-weight adjoint skip.
    fn worst_case_product(
        c: &CompiledProblem,
        fab: &[Array2<f64>],
        strategy: SolverStrategy,
        skip: bool,
    ) -> Vec<Evaluation> {
        let (k, nf) = (c.omega_count(), fab.len());
        let epss: Vec<Array2<f64>> = (0..k).flat_map(|_| fab.iter().cloned()).collect();
        let omega_idx: Vec<usize> = (0..k * nf).map(|ci| ci / nf).collect();
        let is_nominal: Vec<bool> = (0..k * nf).map(|ci| ci % nf == 0).collect();
        let fab_idx: Vec<usize> = (0..k * nf).map(|ci| ci % nf).collect();
        let set = CornerProductSolve {
            strategy,
            nominal_eps: &fab[0],
            epoch: 1,
            omega_idx: &omega_idx,
            is_nominal: &is_nominal,
            force_direct: &vec![false; k * nf],
            threads: 1,
            skip_zero_weight_adjoints: skip
                .then_some((SpectralAggregation::WorstCase, fab_idx.as_slice())),
            recycle: None,
        };
        let spec = &c.problem().objective;
        c.evaluate_corner_product(&epss, true, spec, &mut EvalScratch::new(), &set)
            .unwrap()
    }

    /// The fused product's zero-weight adjoint skip is a pure work
    /// deletion: objectives are bitwise unchanged, every weighted entry
    /// still carries its (bitwise identical) gradient, and exactly the
    /// aggregation's zero-weight entries come back without one.
    #[test]
    fn fused_product_skip_drops_only_zero_weight_gradients() {
        let (c, fab) = spectral_bend(&[0.0, 0.04]);
        let (k, nf) = (c.omega_count(), fab.len());
        let iterative = SolverStrategy::preconditioned_iterative();
        let full = worst_case_product(&c, &fab, iterative, false);
        let skipped = worst_case_product(&c, &fab, iterative, true);
        let mut values = vec![0.0; k];
        let mut weights = vec![0.0; k];
        let all = vec![true; k];
        let mut dropped = 0usize;
        for f in 0..nf {
            for oi in 0..k {
                let (a, b) = (&full[oi * nf + f], &skipped[oi * nf + f]);
                assert_eq!(a.objective, b.objective, "corner {f} ω {oi}");
                values[oi] = a.objective;
            }
            SpectralAggregation::WorstCase.weights_into_masked(&values, &all, &mut weights);
            for oi in 0..k {
                let (a, b) = (&full[oi * nf + f], &skipped[oi * nf + f]);
                // Nominal entries are evaluated outside the batch and
                // always keep their gradient.
                if weights[oi] != 0.0 || f == 0 {
                    assert_eq!(
                        a.grad_eps.as_ref().unwrap().as_slice(),
                        b.grad_eps.as_ref().unwrap().as_slice(),
                        "weighted gradient diverged: corner {f} ω {oi}"
                    );
                } else {
                    assert!(a.grad_eps.is_some());
                    assert!(b.grad_eps.is_none(), "corner {f} ω {oi} not skipped");
                    dropped += 1;
                }
            }
        }
        // WorstCase keeps one ω per corner; the non-nominal corner's two
        // other wavelengths (and possibly the nominal's) are dropped.
        assert!(dropped >= k - 1, "skip never fired ({dropped} dropped)");
    }

    /// A starved budget makes every batched column miss in the forward
    /// phase, so the product's fallback path carries every non-nominal
    /// entry: under WorstCase with the adjoint skip on, each one matches a
    /// `Direct` product bit for bit and reports the fallback.
    #[test]
    fn starved_product_falls_back_to_direct_bitwise() {
        let (c, fab) = spectral_bend(&[0.0, 0.04, -0.04]);
        let direct = worst_case_product(&c, &fab, SolverStrategy::Direct, true);
        let starved = SolverStrategy::PreconditionedIterative {
            tol: 1e-300,
            max_iters: 2,
        };
        let starved = worst_case_product(&c, &fab, starved, true);
        for ci in (0..direct.len()).filter(|ci| ci % fab.len() != 0) {
            let (d, s) = (&direct[ci], &starved[ci]);
            assert_eq!(d.objective.to_bits(), s.objective.to_bits(), "entry {ci}");
            assert_eq!(d.fom.to_bits(), s.fom.to_bits(), "entry {ci}");
            assert_eq!(
                d.grad_eps.as_ref().unwrap().as_slice(),
                s.grad_eps
                    .as_ref()
                    .expect("fallbacks carry gradients")
                    .as_slice(),
                "entry {ci}"
            );
            assert!(s.solve.fell_back && s.solve.used_iterative, "entry {ci}");
            assert!(!d.solve.fell_back && !d.solve.used_iterative, "entry {ci}");
        }
    }

    #[test]
    fn normalisation_power_is_positive_and_stable() {
        let c = CompiledProblem::compile(crossing()).unwrap();
        for &p0 in c.norm_power() {
            assert!(p0 > 1e-9);
        }
    }

    #[test]
    fn temperature_shifts_eps_map() {
        let c = CompiledProblem::compile(bending()).unwrap();
        let rho = Array2::filled(28, 28, 1.0);
        let cold = c.eps_for(&rho, 250.0);
        let hot = c.eps_for(&rho, 350.0);
        let (oy, ox) = c.problem().design_origin;
        assert!(hot[(oy + 5, ox + 5)] > cold[(oy + 5, ox + 5)]);
        let _ = TemperatureModel::eps_si(300.0);
    }

    /// Hager's estimate of `‖A⁻¹‖₁ = ‖A⁻¹‖∞` of a complex-symmetric
    /// operator from its factor (Higham, *Accuracy and Stability of
    /// Numerical Algorithms*, Alg. 15.4), with `A⁻ᴴ·v = conj(A⁻¹·conj(v))`.
    pub(crate) fn inverse_norm_estimate(lu: &boson_num::banded::BandedLu) -> f64 {
        let n = lu.n();
        let conj = |v: &[Complex64]| -> Vec<Complex64> { v.iter().map(|z| z.conj()).collect() };
        let mut x = vec![Complex64::new(1.0 / n as f64, 0.0); n];
        let mut est = 0.0;
        for _ in 0..5 {
            let y = lu.solve_vec(&x);
            est = y.iter().map(|z| z.abs()).sum::<f64>();
            let sign: Vec<Complex64> = y
                .iter()
                .map(|z| {
                    if z.abs() > 0.0 {
                        *z * (1.0 / z.abs())
                    } else {
                        Complex64::ONE
                    }
                })
                .collect();
            let z = conj(&lu.solve_vec(&conj(&sign)));
            let (j, zmax) = z.iter().enumerate().fold((0, 0.0f64), |(j, m), (i, v)| {
                if v.abs() > m {
                    (i, v.abs())
                } else {
                    (j, m)
                }
            });
            let ztx: f64 = z.iter().zip(&x).map(|(z, x)| (z.conj() * *x).re).sum();
            if zmax <= ztx {
                break;
            }
            x = vec![Complex64::ZERO; n];
            x[j] = Complex64::ONE;
        }
        est
    }

    fn inf_norm(v: &[Complex64]) -> f64 {
        v.iter().fold(0.0f64, |m, z| m.max(z.abs()))
    }

    /// Every normalisation reference of the bend, the crossing and the
    /// isolator, at the three wavelengths of a `K = 3` axis (the centre one
    /// is the `K = 1` reference), solves on the `L·D·Lᵀ`: none falls back
    /// to the pivoted LU.
    #[test]
    fn normalisation_references_solve_on_the_ldl() {
        for problem in [bending(), crossing(), isolator()] {
            let c =
                CompiledProblem::compile_spectral(problem.clone(), SpectralAxis::around(0.05, 3))
                    .unwrap();
            let eps_bg = background_eps(&problem);
            for cal in &c.cals {
                let sf = SFactors::new(&problem.grid, cal.omega);
                let stencil = StencilCache::build(&problem.grid, &sf, cal.omega);
                for ei in 0..cal.terms.excitations() {
                    let (_, factor) =
                        reference_field(&problem, &eps_bg, &stencil, &cal.terms, ei).unwrap();
                    assert_eq!(
                        factor,
                        ReferenceFactor::Ldl,
                        "{} ω={} excitation {ei}",
                        problem.name,
                        cal.omega
                    );
                }
            }
        }
    }

    /// Window-only direct evaluations of the bend, the crossing and the
    /// isolator (whose ports reach into both slabs) match the full-field
    /// path — the readings, and `∂F/∂ε` on the window's rows — at every
    /// axial temperature and λ ∈ {1.50, 1.55}, with no window fallback;
    /// the window-only gradient is zero outside the window's rows.
    ///
    /// Bound. Both paths pass their backward-error checks: the full path
    /// on the whole grid, the window-only path on the window's condensed
    /// system, whose inverse is the window block of `A⁻¹` (so
    /// `‖S⁻¹‖∞ ≤ ‖A⁻¹‖∞`). Each field is then within
    /// `κ∞·WINDOW_BACKWARD_TOL` of the exact one relative to its norm,
    /// and the two within `δ = 2·κ∞·WINDOW_BACKWARD_TOL`, with `κ∞` from
    /// Hager's estimator (× 10: it is a lower bound usually within a
    /// factor 3). A reading `|w·E|²/P` then moves by at most
    /// `(2|A| + ΔA)·ΔA/P` with `ΔA = ‖w‖₁·δ·‖E‖∞`, and the gradient
    /// `−2Re(λ·sxy·E)·ω²`, bilinear in the field and the adjoint, by at
    /// most `4δ·ω²·max|sxy|·Σ‖E‖∞‖λ‖∞` per cell.
    #[test]
    fn window_only_evaluations_match_the_full_field_path() {
        use boson_fdfd::operator::assemble_banded;
        use boson_fdfd::window::WINDOW_BACKWARD_TOL;
        let (t_lo, t_hi) = TemperatureModel::default().range();
        for problem in [bending(), crossing(), isolator()] {
            let name = problem.name.clone();
            let c =
                CompiledProblem::compile_spectral(problem, SpectralAxis::around(0.05, 3)).unwrap();
            let grid = c.problem().grid;
            let n = grid.n();
            let rows = c.window_rows();
            let rho = seed_rho(c.problem(), &c.problem().seed.clone());
            let spec = c.problem().objective.clone();
            // Ascending λ: index 0 is 1.50 µm, index 1 the centre.
            for oi in [0, 1] {
                let cal = &c.cals[oi];
                let sf = SFactors::new(&grid, cal.omega);
                for t in [t_lo, 300.0, t_hi] {
                    let tag = format!("{name} ω#{oi} T={t}");
                    let eps = c.eps_for(&rho, t);
                    let mut sw = EvalScratch::new();
                    let mut sfull = EvalScratch::new();
                    let win = c
                        .evaluate_eps_impl(&eps, true, &spec, &mut sw, None, oi, None, false)
                        .unwrap();
                    let full = c
                        .evaluate_eps_impl(&eps, true, &spec, &mut sfull, None, oi, None, true)
                        .unwrap();
                    assert_eq!(win.solve.window_fallbacks, 0, "{tag}");
                    assert_eq!(full.solve.window_fallbacks, 0, "{tag}");

                    let plain = assemble_banded(&grid, &sf, &eps, cal.omega)
                        .factor()
                        .unwrap();
                    let mut diag = Vec::new();
                    let stencil = boson_fdfd::operator::StencilCache::build(&grid, &sf, cal.omega);
                    stencil.diag_into(&eps, &mut diag);
                    let kappa = 10.0 * stencil.norm_inf(&diag) * inverse_norm_estimate(&plain);
                    let delta = 2.0 * kappa * WINDOW_BACKWARD_TOL;

                    let fields = &sfull.fields;
                    let mut bound_of: Vec<HashMap<String, f64>> =
                        vec![HashMap::new(); cal.terms.excitations()];
                    for ((ei, mname), (_, form)) in modal_monitors(cal).zip(cal.terms.forms()) {
                        let e = &fields[ei * n..(ei + 1) * n];
                        let a = form.eval(e).abs();
                        let w1: f64 = form.weights.iter().map(|(_, w)| w.abs()).sum();
                        let da = w1 * delta * inf_norm(e);
                        bound_of[ei]
                            .insert(mname.clone(), (2.0 * a + da) * da / cal.norm_power[ei]);
                    }
                    for (ei, mons) in cal.monitors.iter().enumerate() {
                        for (mname, mon) in mons {
                            if let BoundMonitor::Residual(sub) = mon {
                                let b: f64 = sub.iter().map(|s| bound_of[ei][s]).sum();
                                bound_of[ei].insert(mname.clone(), b);
                            }
                        }
                    }
                    for (ei, map) in full.readings.iter().enumerate() {
                        for (mname, want) in map {
                            let got = win.readings[ei][mname];
                            let limit = bound_of[ei][mname];
                            assert!(
                                (got - want).abs() <= limit,
                                "{tag} {ei}/{mname}: {got} vs {want} (limit {limit:e})"
                            );
                        }
                    }

                    // The full path's fields and adjoints, a column per
                    // excitation (zero adjoint without a source).
                    let scale: f64 = fields
                        .chunks_exact(n)
                        .zip(sfull.adj.chunks_exact(n))
                        .map(|(e, l)| inf_norm(e) * inf_norm(l))
                        .sum();
                    let sxy_max = (0..grid.ny)
                        .flat_map(|iy| (0..grid.nx).map(move |ix| (ix, iy)))
                        .map(|(ix, iy)| sf.sxy(ix, iy).abs())
                        .fold(0.0f64, f64::max);
                    let limit = 4.0 * delta * cal.omega * cal.omega * sxy_max * scale;
                    let (gw, gf) = (win.grad_eps.unwrap(), full.grad_eps.unwrap());
                    for iy in 0..grid.ny {
                        for ix in 0..grid.nx {
                            let (a, b) = (gw[(iy, ix)], gf[(iy, ix)]);
                            if rows.contains(&iy) {
                                assert!(
                                    (a - b).abs() <= limit,
                                    "{tag} ({ix},{iy}): ∂F/∂ε {a:e} vs {b:e} (limit {limit:e})"
                                );
                            } else {
                                assert_eq!(a, 0.0, "{tag} ({ix},{iy}) outside the window");
                            }
                        }
                    }
                }
            }
        }
    }

    /// The worst-case search reads `dT` from the product's full-field
    /// entry (fabrication-nominal at the centre wavelength): under
    /// `Direct`, that entry's gradient is bit for bit the full-field
    /// evaluation's — the path every direct column took before the other
    /// columns became window-only — on one lane and on two, so
    /// `grad_temperature` reads the same `dT`. The other entries are
    /// window-only: zero outside the window's rows.
    #[test]
    fn worst_case_search_reads_dt_from_the_full_field_entry() {
        let (c, fab) = spectral_bend(&[0.0, 0.04]);
        let spec = c.problem().objective.clone();
        let (k, nf) = (c.omega_count(), fab.len());
        let centre = c.nominal_omega_idx();
        let epss: Vec<Array2<f64>> = (0..k).flat_map(|_| fab.iter().cloned()).collect();
        let omega_idx: Vec<usize> = (0..k * nf).map(|ci| ci / nf).collect();
        let is_nominal: Vec<bool> = (0..k * nf).map(|ci| ci % nf == 0).collect();
        let rows = c.window_rows();
        let full = c
            .evaluate_eps_impl(
                &fab[0],
                true,
                &spec,
                &mut EvalScratch::new(),
                None,
                centre,
                None,
                true,
            )
            .unwrap();
        let want = full.grad_eps.unwrap();
        assert!(
            (0..c.problem().grid.ny)
                .filter(|iy| !rows.contains(iy))
                .any(|iy| want.row(iy).iter().any(|v| *v != 0.0)),
            "the full-field gradient reaches outside the window"
        );
        for threads in [1, 2] {
            let set = CornerProductSolve {
                strategy: SolverStrategy::Direct,
                nominal_eps: &fab[0],
                epoch: 1,
                omega_idx: &omega_idx,
                is_nominal: &is_nominal,
                force_direct: &vec![false; k * nf],
                threads,
                skip_zero_weight_adjoints: None,
                recycle: None,
            };
            let evals = c
                .evaluate_corner_product(&epss, true, &spec, &mut EvalScratch::new(), &set)
                .unwrap();
            for (ci, ev) in evals.iter().enumerate() {
                let grad = ev.grad_eps.as_ref().unwrap();
                if is_nominal[ci] && omega_idx[ci] == centre {
                    assert!(
                        grad.as_slice() == want.as_slice(),
                        "{threads} lanes: the full-field entry's gradient moved"
                    );
                } else {
                    for iy in (0..c.problem().grid.ny).filter(|iy| !rows.contains(iy)) {
                        assert!(
                            grad.row(iy).iter().all(|v| *v == 0.0),
                            "entry {ci} row {iy}"
                        );
                    }
                }
            }
        }
    }
}
