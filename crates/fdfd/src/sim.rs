//! The forward/adjoint FDFD factor-and-solve workspace.
//!
//! [`SimWorkspace`] prepares the operator of one permittivity map (one
//! variation *corner*) and solves it for blocks of right-hand sides. The
//! expensive step is the preparation ([`SimWorkspace::factor`]: a banded
//! factorisation); every subsequent source solve or adjoint solve is a
//! cheap triangular substitution against the same factors — the core
//! economy of the adjoint method: *gradient = two solves, one
//! factorisation*.
//!
//! The adjoint identity implemented by [`grad_eps_accumulate`]: with the
//! symmetrised operator `Ã(ε)·E = b̃`, a real objective `F(E)` with
//! Wirtinger gradient `g = ∂F/∂E` (convention `dF = 2Re(gᵀdE)`), and
//! `λ = Ã⁻¹g` (symmetric ⇒ transpose solve = plain solve),
//!
//! ```text
//! dF/dε_k = -2·Re(λ_k · ω² · sx_k·sy_k · E_k)
//! ```
//!
//! # Workspace / ownership contract
//!
//! Keep one [`SimWorkspace`] per thread and reuse it for every corner on
//! the *same grid*:
//!
//! * [`SimWorkspace::prepare_corner`] (with [`SimWorkspace::factor`] as
//!   its direct case) reuses the cached [`SFactors`] and stencil
//!   couplings, kept in a small LRU set of **per-ω slots** (one per
//!   `(grid, ω)` pair, up to [`MAX_OMEGA_SLOTS`] wavelengths resident at
//!   once — a multi-wavelength sweep revisits its ωs allocation-free),
//!   and refactors a retained [`boson_num::banded::BandedLu`] **in
//!   place** ([`boson_num::banded::BandedLu::refactor`]) — after the
//!   first corner of each ω, **zero heap allocations**;
//! * a corner is assembled straight into the factor's own storage, and
//!   its factorisation resumes at the first cell whose operator diagonal
//!   differs bitwise from the diagonal that storage factors. The
//!   couplings depend only on `(grid, ω)`, so every LU column before that
//!   cell is the previous factor's, bit for bit, and is kept: a corner
//!   that differs only inside a design window skips every column before
//!   the window's first cell, and the result is still bit-identical to a
//!   fresh factorisation. Each ω slot's nominal factor refreshes the same
//!   way;
//! * with the design window's grid rows set
//!   ([`SimWorkspace::set_window_rows`]), a direct corner factors only the
//!   window's rows: the fixed slabs above and below it are factored once
//!   per `(grid, ω, slab diagonal)` into a [`crate::window::SlabCache`]
//!   and condensed out, and the window's Schur complement is refactored
//!   in place from its first changed column; slabs and window alike are
//!   complex-symmetric `L·D·Lᵀ` without pivoting ([`crate::window`]). Every
//!   such solve is backward-error checked and falls back to the plain
//!   banded LU on failure. A direct fan-out looks up or builds each
//!   corner's slab pair in its caller's cache and hands the pair to the
//!   lane that factors the corner ([`SimWorkspace::slab_pair`],
//!   [`SimWorkspace::factor_terms`]);
//! * [`SimWorkspace::solve_terms`] and
//!   [`SimWorkspace::solve_terms_adjoint`] are the compiled problem's one
//!   solve API: a corner prepared for the fixed right-hand sides and
//!   output forms of a [`crate::window::WindowTerms`] —
//!   [`SimWorkspace::factor_terms`], or [`SimWorkspace::prepare_corner`]
//!   with [`CornerContext::terms`] — solves every right-hand side and
//!   reads every form, then solves every adjoint of form coefficients,
//!   under any solve mode. A corner factored window-only
//!   (`factor_terms` without `full`) solves only the window's rows from
//!   data the slab cache condenses once per slab, with no slab sweep;
//!   every other corner solves the whole grid and returns all its rows;
//! * [`SimWorkspace::solve_block`] is the low-level solve: it solves a
//!   caller-owned column-major block in place — forward right-hand sides
//!   (currents scaled by [`crate::operator::scale_source_into`]) or
//!   adjoint sources — through a single sweep over the factors, or the
//!   iterative kernel.
//!
//! Buffers passed to the workspace are resized on first use and retain
//! their capacity afterwards, so a steady-state iteration of the corner
//! loop touches the allocator not at all (verified by the
//! `tests/zero_alloc.rs` counting-allocator test).
//!
//! A one-off solve outside any corner loop (a calibration reference)
//! goes through [`crate::window::solve_reference`]: a checked `L·D·Lᵀ`
//! of the whole operator with the pivoted banded LU to fall back on.
//!
//! # Corner solver strategies
//!
//! A variation-corner sweep solves many systems whose operators differ
//! from the *nominal* operator only by small diagonal perturbations.
//! [`SolverStrategy`] selects how [`SimWorkspace`] treats them:
//!
//! * [`SolverStrategy::Direct`] — factor every corner: with window rows
//!   set, the `L·D·Lᵀ` of the window's Schur complement over cached
//!   `L·D·Lᵀ` slabs (`O(n_W·b²)`, `n_W` the window's unknowns); without
//!   them, or on a window fallback, the pivoted banded LU of the whole
//!   operator (`O(n·b²)`). The exact reference path.
//! * [`SolverStrategy::PreconditionedIterative`] — factor only the
//!   nominal operator per `(grid, ω, epoch)` — each resident ω slot
//!   caches its own nominal factor, so a broadband (corner × ω) sweep
//!   pays K nominal factorisations per epoch, not K per corner — and
//!   solve every non-nominal corner with nominal-factor-preconditioned
//!   BiCGSTAB ([`boson_num::krylov`]), the corner operator applied
//!   matrix-free from the cached stencil couplings
//!   ([`crate::operator::StencilCache`]). Preconditioner sweeps run on a
//!   single-precision factor copy for ordinary tolerances (residuals
//!   stay `f64`). Corners are prepared one at a time with
//!   [`SimWorkspace::prepare_corner`] + [`SimWorkspace::solve_block`]
//!   (which falls back to a direct factorisation on a budget miss), or —
//!   the fast path — advanced **together** through
//!   [`SimWorkspace::fused_batch_begin`] /
//!   [`SimWorkspace::fused_batch_push`] /
//!   [`SimWorkspace::fused_batch_solve`], which packs every (corner, ω)
//!   column into shared factor sweeps (a single-wavelength sweep is the
//!   one-ω case) and reports per-corner convergence for the caller's
//!   adaptive fallback policy.
//!
//!   Both entry families run the same iterative kernel: a per-corner
//!   solve is a fused batch of one corner at one ω, so its results are
//!   bit-identical to that corner's columns in a fused sweep.

use crate::grid::SimGrid;
use crate::operator::StencilCache;
use crate::pml::SFactors;
use crate::window::{
    backward_error_ok, Need, SlabCache, SlabPair, Split, WindowFactor, WindowTerms,
};
use boson_num::banded::{BandedLu, BandedLuF32, SingularMatrixError};
use boson_num::krylov::{
    bicgstab_precond_many, ColumnOp, IterativeOptions, KrylovWorkspace, PrecondFamily,
    RecycleSpace, RhsStats,
};
use boson_num::pool;
use boson_num::{Array2, Complex64};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Accumulates the adjoint permittivity gradient
/// `out[k] += -2·Re(λ_k·sx_k·sy_k·E_k)·ω²` into a caller-owned array.
///
/// Backs [`SimWorkspace::grad_eps_accumulate`]; allocation-free.
///
/// # Panics
///
/// Panics if the field/adjoint/output shapes do not match the grid.
pub fn grad_eps_accumulate(
    grid: &SimGrid,
    sfactors: &SFactors,
    omega: f64,
    ez: &[Complex64],
    lambda: &[Complex64],
    out: &mut Array2<f64>,
) {
    grad_eps_accumulate_rows(grid, sfactors, omega, 0..grid.ny, ez, lambda, out);
}

/// [`grad_eps_accumulate`] on the grid rows `rows` only, from fields and
/// adjoints given on those rows.
fn grad_eps_accumulate_rows(
    grid: &SimGrid,
    sfactors: &SFactors,
    omega: f64,
    rows: std::ops::Range<usize>,
    ez: &[Complex64],
    lambda: &[Complex64],
    out: &mut Array2<f64>,
) {
    let len = rows.len() * grid.nx;
    assert_eq!(ez.len(), len, "field length mismatch");
    assert_eq!(lambda.len(), len, "adjoint length mismatch");
    assert_eq!(out.shape(), (grid.ny, grid.nx), "gradient shape mismatch");
    let k2 = omega * omega;
    for iy in rows.clone() {
        let row = iy * grid.nx;
        let local = row - rows.start * grid.nx;
        let lam_row = &lambda[local..local + grid.nx];
        let ez_row = &ez[local..local + grid.nx];
        let out_row = &mut out.as_mut_slice()[row..row + grid.nx];
        for (ix, (dst, (&l, &e))) in out_row
            .iter_mut()
            .zip(lam_row.iter().zip(ez_row))
            .enumerate()
        {
            let s = sfactors.sxy(ix, iy);
            *dst += -2.0 * (l * s * e).re * k2;
        }
    }
}

/// How a [`SimWorkspace`] solves the linear systems of a variation
/// corner.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum SolverStrategy {
    /// Factor every corner operator — the exact reference path. With
    /// window rows set ([`SimWorkspace::set_window_rows`]), a corner
    /// factors the window's Schur complement as an `L·D·Lᵀ` over cached
    /// `L·D·Lᵀ` slabs; without them, or on a window fallback, it
    /// assembles and LU-factors the whole operator (`O(n·b²)`).
    #[default]
    Direct,
    /// Factor only the **nominal** operator per `(grid, ω, epoch)` and
    /// solve every non-nominal corner with nominal-factor-preconditioned
    /// BiCGSTAB, the corner operator applied matrix-free from the cached
    /// stencil couplings. Corners whose iteration fails the budget fall
    /// back to a direct factorisation (see
    /// [`SimWorkspace::prepare_corner`]).
    PreconditionedIterative {
        /// Relative residual at which a right-hand side is converged.
        tol: f64,
        /// Iteration budget per solve before the direct fallback fires.
        max_iters: usize,
    },
}

impl SolverStrategy {
    /// The iterative strategy with its production defaults — those of
    /// [`IterativeOptions::default`] (`tol = 1e-6`, `max_iters = 24`).
    pub fn preconditioned_iterative() -> Self {
        let IterativeOptions { tol, max_iters, .. } = IterativeOptions::default();
        SolverStrategy::PreconditionedIterative { tol, max_iters }
    }

    /// `(tol, max_iters)` of an iterative strategy, `None` for
    /// [`SolverStrategy::Direct`].
    pub fn iterative_params(&self) -> Option<(f64, usize)> {
        match *self {
            SolverStrategy::Direct => None,
            SolverStrategy::PreconditionedIterative { tol, max_iters } => Some((tol, max_iters)),
        }
    }
}

/// Corner metadata for [`SimWorkspace::prepare_corner`] under the
/// iterative strategy.
#[derive(Debug, Clone, Copy)]
pub struct CornerContext<'a> {
    /// Permittivity of the nominal corner — the preconditioner source.
    pub nominal_eps: &'a Array2<f64>,
    /// Monotonic token identifying the nominal operator (typically the
    /// optimisation iteration); the nominal factor is rebuilt whenever it
    /// changes.
    pub epoch: u64,
    /// This corner *is* the nominal corner: solve on its factors
    /// directly, no iteration.
    pub is_nominal: bool,
    /// Cached adaptive-policy decision: skip the iterative attempt and
    /// factor this corner directly.
    pub force_direct: bool,
    /// The right-hand sides and output forms
    /// [`SimWorkspace::solve_terms`] solves this corner for, at the
    /// corner's ω (`None`: [`SimWorkspace::solve_block`] only). A direct
    /// corner is prepared for terms by [`SimWorkspace::factor_terms`].
    pub terms: Option<&'a Arc<WindowTerms>>,
}

/// What the solver did for the last prepared corner — the signal the
/// adaptive fallback policy keys on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CornerSolveReport {
    /// The corner was armed for (and at least attempted) iterative
    /// solves.
    pub used_iterative: bool,
    /// An iterative solve missed its budget and the corner was re-solved
    /// through a direct factorisation. Callers should cache this per
    /// corner and set [`CornerContext::force_direct`] next time.
    pub fell_back: bool,
    /// Every right-hand side of this corner converged (batched sweeps
    /// report non-convergence here and leave the fallback to the
    /// caller).
    pub converged: bool,
    /// Factorisations performed (nominal refresh, direct corner, or
    /// fallback): a window `L·D·Lᵀ` or a plain banded LU each.
    pub factorizations: usize,
    /// Right-hand sides solved.
    pub solves: usize,
    /// Worst per-RHS BiCGSTAB iteration count.
    pub max_iterations: usize,
    /// Summed per-RHS BiCGSTAB iteration counts (`total_iterations /
    /// solves` = mean iterations — the observable the cross-iteration
    /// recycling is judged by).
    pub total_iterations: usize,
    /// Worst per-RHS final true relative residual of an iterative solve.
    pub max_residual: f64,
    /// Direct factors or solves of this corner that left the
    /// design-window path for the plain banded LU: a singular slab or
    /// window factor, or a window solve that failed its backward-error
    /// check (see [`crate::window`]). Each one is a full plain
    /// factorisation, bit-identical to a corner without a window.
    pub window_fallbacks: usize,
}

/// Lagged-nominal-factor policy of a [`SimWorkspace`] (see
/// [`SimWorkspace::set_factor_lag`]): each ω slot keeps its banded
/// nominal factorisation (`BandedLu` + `BandedLuF32`) across optimiser
/// epochs, refactoring only when the nominal diagonal has drifted past
/// `drift_tol`, the factor's age exceeds `max_lag` epochs, or a budget
/// miss was recorded against the stale factor — turning the per-epoch
/// `O(n·b²)` refactor into `O(n)` drift math most iterations. The
/// existing budget-miss → direct-fallback machinery keeps results
/// correct regardless of how stale a kept factor is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorLag {
    /// Maximum epochs a nominal factor may be reused past the epoch it
    /// was built at (0 = rebuild every epoch, as without lag).
    pub max_lag: u64,
    /// Relative diagonal drift `‖Δdiag‖∞ / ‖diag‖∞` beyond which the
    /// factor is rebuilt regardless of age.
    pub drift_tol: f64,
}

/// Caller-owned recycling state of one recycled
/// [`SimWorkspace::fused_batch_solve`] call: the deflation
/// stores, the batch-corner → store mapping, and the optimiser epoch
/// stamped on harvests and checked on applications.
///
/// A store remembers the solves of one kind of right-hand side: keep
/// forward and adjoint solves in separate stores (the operator is the
/// same for both, since it is complex-symmetric).
#[derive(Debug)]
pub struct FusedRecycle<'a> {
    /// The caller's per-column deflation stores (typically keyed by the
    /// stable product-column index of the (corner × ω) cross product so
    /// dormant subspace-scheduler columns keep stale-but-monitored
    /// state).
    pub spaces: &'a mut [RecycleSpace],
    /// `keys[corner]` = index into `spaces` of batch corner `corner`;
    /// shared by all of that corner's right-hand-side columns.
    pub keys: &'a [usize],
    /// Optimiser epoch of this solve.
    pub epoch: u64,
}

/// Tolerances at least this loose run the preconditioner sweeps on the
/// single-precision factor copy; tighter ones use the f64 factors so the
/// iteration cannot plateau near the f32 noise floor.
const F32_PRECOND_MIN_TOL: f64 = 1e-8;

/// Packed active-column count at which a fused-batch **banded**
/// preconditioner sweep splits across pool lanes
/// (see [`SimWorkspace::fused_batch_solve`]).
///
/// Retuned for pool dispatch (`boson_num::pool`): the scoped-spawn
/// generation paid a thread spawn + join per split (~tens of µs), which
/// needed ≥ 48 columns to amortise; a pool dispatch costs a mutex
/// hand-off and a condvar wake (`bench pool_split`, recorded in
/// `crates/bench/benches/pool_split.rs`), so a 27-corner single-ω batch
/// (~32 columns) now splits too, not just the fused multi-ω products.
/// Below the threshold the per-lane re-reads of the factor image and the
/// dispatch hand-off still outweigh the parallel sweep work. Columns are
/// solved independently, so serial and split sweeps are bit-identical at
/// any lane count.
pub const FUSED_SPLIT_MIN_COLS: usize = 16;

/// Maximum number of per-ω slots a [`SimWorkspace`] retains. A broadband
/// robust iteration keys its geometry caches and nominal factors by
/// `(grid, ω)`; up to this many wavelengths stay resident simultaneously
/// (allocation-free once warm), beyond it the least-recently-used ω is
/// evicted and rebuilt on return (which re-allocates — keep `K ≤` this
/// for steady-state zero-allocation sweeps).
pub const MAX_OMEGA_SLOTS: usize = 8;

/// The `(grid, ω)`-keyed state of one operating wavelength: PML stretch
/// factors, the ε-independent stencil couplings, and the cached nominal
/// factorisation (plus its single-precision preconditioner copy) with the
/// epoch it belongs to.
#[derive(Debug)]
struct OmegaSlot {
    omega: f64,
    sfactors: SFactors,
    stencil: StencilCache,
    /// Factorisation of this ω's nominal corner operator (iterative
    /// strategy).
    nominal_lu: BandedLu,
    /// Single-precision copy of the nominal factors — the preconditioner
    /// application engine for ordinary tolerances.
    nominal_lu32: BandedLuF32,
    /// Epoch the nominal factor was last **checked** against; `None` =
    /// invalid. Without factor lag this is also the epoch the factor was
    /// built at; with lag the factor itself may be older (see
    /// `factor_epoch`).
    nominal_epoch: Option<u64>,
    /// Epoch `nominal_lu`/`nominal_lu32` were actually factored at;
    /// `None` = no factor. Equal to `nominal_epoch` unless a
    /// [`FactorLag`] policy kept a stale factor.
    factor_epoch: Option<u64>,
    /// Nominal operator diagonal the current factor was built from — the
    /// reference of the `‖Δdiag‖∞ / ‖diag‖∞` drift monitor and the
    /// record the next nominal refactor resumes from. Filled only on
    /// refactor, cleared when one fails; O(n) storage per slot.
    factor_diag: Vec<Complex64>,
    /// Budget misses recorded against the **stale** factor since it was
    /// built; any miss trips a refactor at the next epoch check.
    factor_miss_streak: usize,
    /// LRU stamp (workspace clock at last use).
    last_used: u64,
}

/// The corners one iterative solve advances: a fused (corner × ω) batch,
/// or the single prepared corner of a per-corner solve. Column `col`
/// belongs to corner `col / cols_per_corner`.
#[derive(Clone, Copy)]
struct Batch<'a> {
    /// Slot index per batch-local ω.
    fused_slots: &'a [usize],
    /// Batch-local ω index per corner.
    omega_of_corner: &'a [usize],
    /// Concatenated per-corner operator diagonals, `n` entries each.
    diags: &'a [Complex64],
    /// Right-hand-side columns per corner.
    cols_per_corner: usize,
}

impl Batch<'_> {
    /// Slot index of column `col`'s wavelength.
    fn slot_of_col(&self, col: usize) -> usize {
        self.fused_slots[self.omega_of_corner[col / self.cols_per_corner]]
    }
}

/// The matrix-free operator family of a batch: column `col` applies its
/// corner's diagonal through *its own wavelength's* cached stencil
/// couplings.
struct FusedCornerOp<'a> {
    slots: &'a [OmegaSlot],
    batch: Batch<'a>,
}

impl ColumnOp for FusedCornerOp<'_> {
    fn dim(&self) -> usize {
        self.slots[self.batch.fused_slots[0]].stencil.n()
    }

    fn apply_col(&self, col: usize, x: &[Complex64], y: &mut [Complex64]) {
        let corner = col / self.batch.cols_per_corner;
        let stencil = &self.slots[self.batch.slot_of_col(col)].stencil;
        let n = stencil.n();
        stencil.apply(&self.batch.diags[corner * n..(corner + 1) * n], x, y);
    }
}

/// The per-column preconditioner family of a batch: every packed column
/// is preconditioned by **its own wavelength's** nominal factor. Columns
/// of one ω form contiguous runs in the ω-major packed block, so each run
/// costs one factor sweep — and runs above [`FUSED_SPLIT_MIN_COLS`] total
/// active columns split into independent contiguous column chunks
/// dispatched on the process-wide `boson_num::pool` (columns are solved
/// independently; any split is bit-identical to the serial sweep).
struct FusedPrecond<'a> {
    slots: &'a [OmegaSlot],
    batch: Batch<'a>,
    /// Sweep the single-precision factor copies (ordinary tolerances).
    use_f32: bool,
    /// One f32 conversion scratch per lane; the slice length *is* the
    /// split width (1 = serial).
    scratches: &'a mut [Vec<f32>],
}

impl PrecondFamily for FusedPrecond<'_> {
    fn dim(&self) -> usize {
        self.slots[self.batch.fused_slots[0]].stencil.n()
    }

    fn solve_packed(&mut self, b: &mut [Complex64], cols: &[usize]) {
        let n = self.dim();
        let workers = self.scratches.len();
        let split = workers > 1 && cols.len() >= FUSED_SPLIT_MIN_COLS;
        let workers = if split { workers } else { 1 };
        let mut rest = b;
        let mut start = 0usize;
        while start < cols.len() {
            let slot_idx = self.batch.slot_of_col(cols[start]);
            let mut end = start + 1;
            while end < cols.len() && self.batch.slot_of_col(cols[end]) == slot_idx {
                end += 1;
            }
            let (run, tail) = rest.split_at_mut((end - start) * n);
            rest = tail;
            solve_slot_run(
                &self.slots[slot_idx],
                run,
                end - start,
                n,
                self.use_f32,
                &mut self.scratches[..workers],
            );
            start = end;
        }
    }
}

/// Sweeps one ω's nominal factor over a contiguous run of `run_cols`
/// packed columns, optionally split into near-equal contiguous chunks
/// dispatched on the process-wide pool (`scratches.len()` is the split
/// width; the calling thread participates as lane 0). The chunk
/// decomposition depends only on `run_cols` and the split width — never
/// on which lane executes which chunk — so any worker count is
/// bit-identical.
fn solve_slot_run(
    slot: &OmegaSlot,
    run: &mut [Complex64],
    run_cols: usize,
    n: usize,
    use_f32: bool,
    scratches: &mut [Vec<f32>],
) {
    let solve_chunk = |chunk: &mut [Complex64], scratch: &mut Vec<f32>| {
        let ccols = chunk.len() / n;
        if use_f32 {
            slot.nominal_lu32
                .solve_many_with_scratch(scratch, chunk, ccols);
        } else {
            slot.nominal_lu.solve_many(chunk, ccols);
        }
    };
    let workers = scratches.len();
    if workers <= 1 || run_cols < 2 {
        solve_chunk(run, &mut scratches[0]);
        return;
    }
    let per = run_cols.div_ceil(workers);
    pool::global().chunks_with(run, per * n, scratches, |_part, chunk, scratch| {
        solve_chunk(chunk, scratch)
    });
}

/// The reusable state of a workspace's one iterative solve kernel
/// ([`KrylovEngine::solve`]), grown once and then reused.
#[derive(Debug, Default)]
struct KrylovEngine {
    krylov: KrylovWorkspace,
    /// Per-lane f32 conversion scratches of the (possibly split)
    /// preconditioner sweeps.
    scratches: Vec<Vec<f32>>,
    /// Initial-guess snapshot of a recycled solve, so converged
    /// corrections `x − x₀` can be harvested afterwards.
    recycle_x0: Vec<Complex64>,
}

impl KrylovEngine {
    /// Lockstep-solves every column of `batch` with BiCGSTAB, each column
    /// preconditioned by its own ω's nominal factor (on the f32 copy for
    /// tolerances of at least [`F32_PRECOND_MIN_TOL`]) and
    /// stencil-applied through its own ω's couplings; returns the
    /// per-column stats. `opts.threads` (≥ 1) is the lane budget of the
    /// sweeps and vector stages; `b`, `x` and `recycle` are as in
    /// [`SimWorkspace::fused_batch_solve`].
    ///
    /// This is the one iterative kernel of a [`SimWorkspace`]: fused
    /// sweeps run it over the whole batch, a per-corner solve as a batch
    /// of one corner. A budget miss against a lag-kept stale nominal
    /// factor trips that slot's refactor at the next epoch check.
    fn solve(
        &mut self,
        slots: &mut [OmegaSlot],
        batch: Batch<'_>,
        b: &[Complex64],
        x: &mut [Complex64],
        mut opts: IterativeOptions,
        mut recycle: Option<FusedRecycle<'_>>,
    ) -> &[RhsStats] {
        let Self {
            krylov,
            scratches,
            recycle_x0,
        } = self;
        let n = slots[batch.fused_slots[0]].stencil.n();
        let corners = batch.diags.len() / n;
        let ncols = corners * batch.cols_per_corner;
        assert_eq!(b.len(), n * ncols, "fused rhs block length mismatch");
        assert_eq!(x.len(), n * ncols, "fused solution block length mismatch");
        let workers = opts.threads;
        if scratches.len() < workers {
            scratches.resize_with(workers, Vec::new);
        }
        {
            let op = FusedCornerOp {
                slots: &*slots,
                batch,
            };
            if let Some(rec) = recycle.as_mut() {
                assert!(
                    rec.keys.len() >= corners,
                    "recycle keys shorter than the fused batch"
                );
                // Recycled pre-pass: turn every column's start into an
                // explicit initial guess (zeroed when the caller had
                // none — `b − A·0` is exactly `b`, so a cold column
                // behaves as before), then Galerkin-project each
                // column's residual onto its deflation store.
                if !opts.use_initial_guess {
                    x.fill(Complex64::ZERO);
                }
                opts.use_initial_guess = true;
                for c in 0..ncols {
                    let space = &mut rec.spaces[rec.keys[c / batch.cols_per_corner]];
                    space.ensure_dim(n);
                    space.try_apply(
                        &op,
                        c,
                        &b[c * n..(c + 1) * n],
                        &mut x[c * n..(c + 1) * n],
                        rec.epoch,
                    );
                }
                // Snapshot x₀ so corrections can be harvested after the
                // solve; grown once, then reused.
                recycle_x0.clear();
                recycle_x0.extend_from_slice(x);
            }
            let mut family = FusedPrecond {
                slots: &*slots,
                batch,
                use_f32: opts.tol >= F32_PRECOND_MIN_TOL,
                scratches: &mut scratches[..workers],
            };
            bicgstab_precond_many(&op, &mut family, b, x, ncols, &opts, krylov);
            if let Some(rec) = recycle.as_mut() {
                // Harvest converged corrections x − x₀ (in place over the
                // snapshot). A column that converged at its starting
                // point contributes a zero correction, which harvest
                // rejects while still advancing the store's epoch stamp.
                for (c, stats) in krylov.stats().iter().enumerate() {
                    if !stats.converged {
                        continue;
                    }
                    let col = c * n..(c + 1) * n;
                    let correction = &mut recycle_x0[col.clone()];
                    for (d, &xi) in correction.iter_mut().zip(&x[col.clone()]) {
                        *d = xi - *d;
                    }
                    let space = &mut rec.spaces[rec.keys[c / batch.cols_per_corner]];
                    space.harvest(correction, rec.epoch);
                    // Remember the full solution too: next epoch's
                    // `try_apply` starts from it when its residual beats
                    // the shared warm start (for multi-column corners the
                    // last column wins — a mismatched remembered solution
                    // is rejected by the residual gate, never committed).
                    space.remember_solution(&x[col], rec.epoch);
                }
            }
        }
        for (c, stats) in krylov.stats().iter().enumerate() {
            let slot = &mut slots[batch.slot_of_col(c)];
            if !stats.converged && slot.factor_epoch != slot.nominal_epoch {
                slot.factor_miss_streak += 1;
            }
        }
        krylov.stats()
    }
}

/// Relative ∞-norm drift `‖diag − ref‖∞ / ‖diag‖∞` of a nominal operator
/// diagonal against the snapshot its factor was built from. Compared on
/// squared magnitudes (order-preserving), one `sqrt` at the end. A length
/// mismatch or a zero/non-finite reference norm reports `+∞` (always
/// refactor).
fn diag_drift(diag: &[Complex64], reference: &[Complex64]) -> f64 {
    if diag.len() != reference.len() || diag.is_empty() {
        return f64::INFINITY;
    }
    let mut delta2 = 0.0f64;
    let mut norm2 = 0.0f64;
    for (&d, &r) in diag.iter().zip(reference) {
        delta2 = delta2.max((d - r).norm_sqr());
        norm2 = norm2.max(d.norm_sqr());
    }
    let drift = (delta2 / norm2).sqrt();
    if drift.is_finite() {
        drift
    } else {
        f64::INFINITY
    }
}

/// Refactors `lu` in place for the operator of `stencil` with diagonal
/// `diag` — the one factorisation path behind every [`SimWorkspace`]
/// factor (direct corners, forced-direct corners, budget-miss fallbacks
/// and nominal refreshes).
///
/// `factored` records the diagonal `lu` currently factors with
/// `stencil`'s couplings (empty: nothing to keep). The couplings depend
/// only on `(grid, ω)`, so the two operators agree in every column before
/// the first entry where the diagonals differ bitwise: the factorisation
/// resumes there ([`BandedLu::refactor`], bit-identical to a fresh one)
/// and only the columns from it on are assembled, straight into the
/// factor's storage. On success `factored` becomes `diag`; on failure it
/// is cleared, so the next call starts at column 0.
fn refactor_lu(
    lu: &mut BandedLu,
    factored: &mut Vec<Complex64>,
    stencil: &StencilCache,
    diag: &[Complex64],
) -> Result<(), SingularMatrixError> {
    let bits = |z: &Complex64| (z.re.to_bits(), z.im.to_bits());
    let start = if factored.len() == diag.len() {
        diag.iter()
            .zip(factored.iter())
            .position(|(d, f)| bits(d) != bits(f))
            .unwrap_or(diag.len())
    } else {
        0
    };
    let (n, nx) = (stencil.n(), stencil.nx());
    let result = lu.refactor(n, nx, nx, start, |a, start| {
        stencil.assemble_block_with_diag(diag, 0..n, false, start, a)
    });
    factored.clear();
    if result.is_ok() {
        factored.extend_from_slice(diag);
    }
    result.map(drop)
}

/// Refreshes one ω slot's banded nominal factorisation for `epoch` —
/// the shared epoch gate of [`SimWorkspace::prepare_corner`] and
/// [`SimWorkspace::fused_batch_begin`].
///
/// Without a [`FactorLag`] policy this is the eager path: any epoch
/// change reassembles and refactors (bit-identical to the pre-lag
/// behaviour). With one, the fresh nominal diagonal is always computed
/// (`O(n)`), but the `O(n·b²)` refactor runs only when the factor has
/// drifted past `drift_tol`, aged past `max_lag` epochs, or accumulated
/// a budget miss; otherwise the stale factor is kept and only the epoch
/// stamp advances.
///
/// Returns the number of factorisations performed (0 or 1). `diag` is
/// the workspace's diagonal scratch buffer. A failed refactor leaves the
/// slot without a nominal factor.
fn refresh_nominal_banded(
    slot: &mut OmegaSlot,
    diag: &mut Vec<Complex64>,
    nominal_eps: &Array2<f64>,
    epoch: u64,
    lag: Option<FactorLag>,
) -> Result<usize, SingularMatrixError> {
    if slot.nominal_epoch == Some(epoch) {
        return Ok(0);
    }
    slot.stencil.diag_into(nominal_eps, diag);
    if let (Some(lag), Some(built)) = (lag, slot.factor_epoch) {
        let aged = epoch < built || epoch - built > lag.max_lag;
        let keep = !aged
            && slot.factor_miss_streak == 0
            && diag_drift(diag, &slot.factor_diag) <= lag.drift_tol;
        if keep {
            slot.nominal_epoch = Some(epoch);
            return Ok(0);
        }
    }
    if let Err(e) = refactor_lu(
        &mut slot.nominal_lu,
        &mut slot.factor_diag,
        &slot.stencil,
        diag,
    ) {
        // The failed attempt overwrote the factor.
        slot.factor_epoch = None;
        slot.nominal_epoch = None;
        return Err(e);
    }
    slot.nominal_lu32.assign_from(&slot.nominal_lu);
    slot.factor_epoch = Some(epoch);
    slot.factor_miss_streak = 0;
    slot.nominal_epoch = Some(epoch);
    Ok(1)
}

/// Folds per-column Krylov stats into per-corner solve reports, column
/// `col` into `reports[col / cols_per_corner]` (fused sweeps: one report
/// per batch corner, the adjoint phase merging into the forward phase's;
/// per-corner solves: the prepared corner's report, once per
/// [`SimWorkspace::solve_block`] call).
fn merge_stats_into_reports(
    stats: &[RhsStats],
    reports: &mut [CornerSolveReport],
    cols_per_corner: usize,
) {
    for (col, stats) in stats.iter().enumerate() {
        let report = &mut reports[col / cols_per_corner];
        report.used_iterative = true;
        report.solves += 1;
        report.max_iterations = report.max_iterations.max(stats.iterations);
        report.total_iterations += stats.iterations;
        report.max_residual = report.max_residual.max(stats.residual);
        report.converged &= stats.converged;
    }
}

/// Keeps the unknowns `rows` of every `n`-long column of the
/// column-major `block`, in place: a whole-grid solution cut to the
/// window's rows of a window-only corner (no-op for the whole grid).
fn keep_rows(block: &mut Vec<Complex64>, n: usize, rows: std::ops::Range<usize>) {
    let nr = rows.len();
    let cols = block.len() / n;
    for c in 0..cols {
        block.copy_within(c * n + rows.start..c * n + rows.end, c * nr);
    }
    block.truncate(cols * nr);
}

/// How the currently-prepared operator solves systems.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SolveMode {
    /// `lu` holds this corner's own factorisation.
    DirectLu,
    /// `window` holds this corner's design-window factor over the cached
    /// slabs of this split; every solve is backward-error checked and
    /// falls back to [`SolveMode::DirectLu`].
    Window(Split),
    /// As [`SolveMode::Window`], over slabs condensed for the prepared
    /// terms that need not keep their factors: window-only solves.
    WindowTerms(Split),
    /// The corner *is* the nominal corner: solve on `nominal_lu`.
    NominalDirect,
    /// Matrix-free iterative path, preconditioned by the nominal banded
    /// factors, falling back to [`SolveMode::DirectLu`] on budget miss.
    Iterative { tol: f64, max_iters: usize },
}

/// What a full-field direct factor needs from its slabs: their factors.
const FULL_FIELD: Need<'static> = Need {
    terms: None,
    factor: true,
};

/// Reusable factor-and-solve workspace for repeated simulations on one
/// grid (see the module docs for the ownership contract).
///
/// Typical lifecycle, once per worker thread:
///
/// ```no_run
/// # use boson_fdfd::grid::SimGrid;
/// # use boson_fdfd::operator::scale_source_into;
/// # use boson_fdfd::sim::SimWorkspace;
/// # use boson_num::{Array2, Complex64};
/// # let grid = SimGrid::new(40, 30, 0.05, 8);
/// # let omega = 2.0 * std::f64::consts::PI / 1.55;
/// # let eps_of_corner = |_c: usize| Array2::filled(30, 40, 1.0);
/// # let jz = vec![Complex64::ZERO; grid.n()];
/// # let adjoint_source = |_field: &[Complex64], _g: &mut [Complex64]| {};
/// let mut ws = SimWorkspace::new();
/// let mut field = vec![Complex64::ZERO; grid.n()];
/// let mut lambda = vec![Complex64::ZERO; grid.n()];
/// let mut grad = Array2::zeros(grid.ny, grid.nx);
/// for corner in 0..8 {
///     let eps = eps_of_corner(corner);
///     ws.factor(grid, omega, &eps).unwrap(); // alloc-free after warm-up
///     scale_source_into(&grid, ws.sfactors(), omega, &jz, &mut field);
///     ws.solve_block(&mut field, 1).unwrap(); // forward solve
///     adjoint_source(&field, &mut lambda); // ∂F/∂E
///     ws.solve_block(&mut lambda, 1).unwrap(); // adjoint reuses the factors
///     ws.grad_eps_accumulate(&field, &lambda, &mut grad);
/// }
/// ```
///
/// Corner sweeps that want to amortise the factorisation prepare each
/// corner with [`SimWorkspace::prepare_corner`] under an iterative
/// [`SolverStrategy`] instead of `factor`; the solves stay the same.
///
/// Every factorisation — a direct corner, a forced-direct corner, a
/// budget-miss fallback, a nominal refresh — runs in place in the band
/// storage of the factor it replaces and resumes at the first cell whose
/// diagonal changed (see the module docs); each factor keeps a record of
/// the diagonal it factors, and there is no assembly buffer.
///
/// With design-window rows set ([`SimWorkspace::set_window_rows`]), a
/// direct corner factors only the window's rows: the fixed slabs above
/// and below it come factored from a [`SlabCache`] (see
/// [`crate::window`]), and the corner's factor is the `L·D·Lᵀ` of the
/// window's Schur complement, a lower-band buffer over the window rows.
/// Without window rows,
/// or on a window fallback, the corner factor is one full band buffer,
/// allocated on first use. Each resident ω slot's nominal factor
/// (iterative strategy only) is a full band buffer either way.
#[derive(Debug)]
pub struct SimWorkspace {
    grid: Option<SimGrid>,
    /// ω of the active slot (0.0 until the first factorisation).
    omega: f64,
    /// Per-ω geometry + nominal-factor caches, LRU-bounded by
    /// [`MAX_OMEGA_SLOTS`]. A single-wavelength run occupies exactly one
    /// slot and follows the same code path as before the spectral
    /// extension (bit-identical results).
    slots: Vec<OmegaSlot>,
    /// Index of the active slot in `slots`.
    active: usize,
    /// Monotonic use counter driving the LRU eviction.
    clock: u64,
    /// Design-window grid rows of direct corner factors (`None`: plain
    /// banded factors).
    window_rows: Option<std::ops::Range<usize>>,
    /// The prepared corner's design-window factor, refactored in place
    /// from corner to corner.
    window: WindowFactor,
    /// Factored slabs around the design window, built on demand.
    slabs: SlabCache,
    /// The terms the prepared corner solves for.
    terms: Option<Arc<WindowTerms>>,
    /// The split of a corner prepared window-only: its terms' solves
    /// return the window's rows, even after a fallback to the plain LU.
    window_only: Option<Split>,
    /// `‖A‖∞` of the prepared corner (window mode's backward-error check).
    a_norm: f64,
    /// Residual scratch of the backward-error check.
    resid: Vec<Complex64>,
    /// The prepared corner's own plain factorisation (direct modes
    /// without a window, and window fallbacks), refactored in place from
    /// corner to corner.
    lu: BandedLu,
    /// Operator diagonal `lu`'s storage factors (empty: none) …
    lu_diag: Vec<Complex64>,
    /// … with the couplings of this `(grid, ω)`.
    lu_key: Option<(SimGrid, f64)>,
    factored: bool,
    /// Diagonal of the currently-prepared corner operator.
    diag: Vec<Complex64>,
    /// RHS snapshot so a direct fallback can re-solve the same systems.
    rhs: Vec<Complex64>,
    /// The iterative solve kernel's state, shared by per-corner and
    /// fused solves.
    engine: KrylovEngine,
    mode: SolveMode,
    report: CornerSolveReport,
    /// Concatenated per-corner diagonals of the current batched sweep.
    batch_diags: Vec<Complex64>,
    /// Corners in the current batch.
    batch_count: usize,
    /// Convergence controls of the current batch.
    batch_opts: IterativeOptions,
    /// Per-corner reports of the current batch.
    batch_reports: Vec<CornerSolveReport>,
    /// Batch-local ω index of each corner of the current **fused** batch
    /// (indexes [`SimWorkspace::fused_batch_begin`]'s ω list).
    fused_omega_of_corner: Vec<usize>,
    /// Slot index (into `slots`) of each fused-batch ω, pinned for the
    /// duration of the batch.
    fused_slots: Vec<usize>,
    /// Lagged-nominal-factor policy; `None` (default) = eager refactor
    /// every epoch, bit-identical to the pre-lag behaviour.
    factor_lag: Option<FactorLag>,
}

impl Default for SimWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl SimWorkspace {
    /// An empty workspace; buffers are sized on first
    /// [`SimWorkspace::factor`].
    pub fn new() -> Self {
        Self {
            grid: None,
            omega: 0.0,
            slots: Vec::new(),
            active: 0,
            clock: 0,
            window_rows: None,
            window: WindowFactor::new(),
            slabs: SlabCache::new(),
            terms: None,
            window_only: None,
            a_norm: 0.0,
            resid: Vec::new(),
            lu: BandedLu::placeholder(),
            lu_diag: Vec::new(),
            lu_key: None,
            factored: false,
            diag: Vec::new(),
            rhs: Vec::new(),
            engine: KrylovEngine::default(),
            mode: SolveMode::DirectLu,
            report: CornerSolveReport::default(),
            batch_diags: Vec::new(),
            batch_count: 0,
            batch_opts: IterativeOptions::default(),
            batch_reports: Vec::new(),
            fused_omega_of_corner: Vec::new(),
            fused_slots: Vec::new(),
            factor_lag: None,
        }
    }

    /// Sets (or clears) the lagged-nominal-factor policy. With `Some`,
    /// each ω slot's banded nominal factorisation survives across epochs
    /// until diagonal drift, age, or a budget miss trips a rebuild (see
    /// [`FactorLag`]); with `None` (the default) every epoch refactors
    /// eagerly, bit-identical to the pre-lag behaviour.
    ///
    /// While a kept factor is stale the *nominal corner itself* is solved
    /// iteratively (preconditioned by the stale factor, converging in a
    /// few iterations since drift is bounded by `drift_tol`) instead of
    /// directly on the factor — the factor no longer *is* the nominal
    /// operator, and solving on it directly would silently answer last
    /// epoch's physics.
    pub fn set_factor_lag(&mut self, lag: Option<FactorLag>) {
        self.factor_lag = lag;
    }

    /// The current lagged-nominal-factor policy.
    pub fn factor_lag(&self) -> Option<FactorLag> {
        self.factor_lag
    }

    /// The grid of the current factorisation.
    ///
    /// # Panics
    ///
    /// Panics if the workspace has never been factored.
    pub fn grid(&self) -> &SimGrid {
        self.grid.as_ref().expect("SimWorkspace::factor not called")
    }

    /// Angular frequency of the current factorisation.
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// PML stretch factors of the current factorisation.
    ///
    /// # Panics
    ///
    /// Panics if the workspace has never been factored.
    pub fn sfactors(&self) -> &SFactors {
        &self
            .slots
            .get(self.active)
            .expect("SimWorkspace::factor not called")
            .sfactors
    }

    /// Number of ω slots currently resident (≤ [`MAX_OMEGA_SLOTS`]).
    pub fn omega_slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Selects (building or evicting as needed) the per-ω slot for
    /// `(grid, ω)` — PML stretch factors, stencil couplings and this ω's
    /// cached nominal factor. A grid change clears every slot; revisiting
    /// a resident ω is an `O(K)` scan with no allocation, which is what
    /// keeps the steady-state multi-wavelength corner sweep
    /// allocation-free for `K ≤` [`MAX_OMEGA_SLOTS`].
    fn ensure_geometry(&mut self, grid: SimGrid, omega: f64) {
        if self.grid != Some(grid) {
            self.slots.clear();
            self.grid = Some(grid);
        }
        self.clock += 1;
        if let Some(idx) = self.slots.iter().position(|s| s.omega == omega) {
            self.active = idx;
        } else {
            let sfactors = SFactors::new(&grid, omega);
            let stencil = StencilCache::build(&grid, &sfactors, omega);
            let slot = OmegaSlot {
                omega,
                sfactors,
                stencil,
                nominal_lu: BandedLu::placeholder(),
                nominal_lu32: BandedLuF32::placeholder(),
                nominal_epoch: None,
                factor_epoch: None,
                factor_diag: Vec::new(),
                factor_miss_streak: 0,
                // Stamp the clock at *insertion*, not first reuse: a slot
                // born with stamp 0 would be the LRU minimum and could be
                // evicted by the very next new ω — with
                // K = MAX_OMEGA_SLOTS + 1 interleaved visits the freshly
                // built slot would thrash instead of the true LRU victim.
                last_used: self.clock,
            };
            if self.slots.len() < MAX_OMEGA_SLOTS {
                self.slots.push(slot);
                self.active = self.slots.len() - 1;
            } else {
                let lru = self
                    .slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.last_used)
                    .map(|(i, _)| i)
                    .expect("slot cache non-empty");
                self.slots[lru] = slot;
                self.active = lru;
            }
        }
        self.slots[self.active].last_used = self.clock;
        self.omega = omega;
    }

    /// Sets the design-window grid rows of direct corner factors (`None`,
    /// the default: plain banded factors). With a window, every direct
    /// factorisation — [`SimWorkspace::factor`], forced-direct corners and
    /// budget-miss fallbacks — condenses the fixed slabs above and below
    /// it out of the operator and factors only the window rows (see
    /// [`crate::window`]); nominal factors stay plain. A window on the
    /// grid's first or last row leaves a slab empty and keeps the plain
    /// path. Setting the same rows again is free.
    pub fn set_window_rows(&mut self, rows: Option<std::ops::Range<usize>>) {
        self.window_rows = rows;
    }

    /// Assembles and factors the operator for `eps`, reusing every buffer:
    /// the direct corner preparation. Subsequent
    /// [`SimWorkspace::solve_block`] calls solve on the fresh factors, and
    /// [`SimWorkspace::last_report`] restarts at this one factorisation.
    ///
    /// The [`SFactors`] and the ε-independent stencil couplings are
    /// recomputed only when `(grid, omega)` differs from the previous
    /// call — a corner assembly rewrites the diagonal `k₀²·ε·sx·sy` band
    /// and copies the cached couplings instead of re-deriving them. The
    /// operator is assembled into the factor's storage itself, reused
    /// whenever the grid size is unchanged, and the factorisation resumes
    /// at the first column that differs from the previous corner's at the
    /// same `(grid, omega)` (bit-identical to a fresh factor). With window
    /// rows set, only the window's rows are factored, over slabs from this
    /// workspace's [`SlabCache`].
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if the operator is singular; the
    /// workspace is then unfactored until the next successful call.
    ///
    /// # Panics
    ///
    /// Panics if `eps` does not have shape `(ny, nx)`.
    pub fn factor(
        &mut self,
        grid: SimGrid,
        omega: f64,
        eps: &Array2<f64>,
    ) -> Result<(), SingularMatrixError> {
        self.factor_corner(grid, omega, eps, None, FULL_FIELD)
    }

    fn factor_corner(
        &mut self,
        grid: SimGrid,
        omega: f64,
        eps: &Array2<f64>,
        slabs: Option<&SlabPair>,
        need: Need<'_>,
    ) -> Result<(), SingularMatrixError> {
        self.load_diag(grid, omega, eps);
        // A new corner: nothing of the previous corner's report or terms
        // carries over.
        self.report = CornerSolveReport {
            converged: true,
            ..CornerSolveReport::default()
        };
        self.terms = None;
        self.window_only = None;
        self.factor_direct(slabs, need)?;
        self.report.factorizations += 1;
        Ok(())
    }

    /// Prepares the direct corner `eps` for the right-hand sides and
    /// output forms of `terms`, at their ω: the design window's rows are
    /// factored over slabs condensed for `terms` — `slabs` when given (see
    /// [`SimWorkspace::slab_pair`]), else looked up or built in this
    /// workspace's cache. Without
    /// `full` the corner is window-only: [`SimWorkspace::solve_terms`]
    /// and [`SimWorkspace::solve_terms_adjoint`] solve only the window's
    /// rows, with no slab sweep, and [`SimWorkspace::solve_block`]
    /// panics. With `full`, the slabs also keep their factors, and the
    /// terms' solves and `solve_block` solve the whole grid as after
    /// [`SimWorkspace::factor`]. Without window rows, or on a window
    /// fallback, every solve runs on the plain banded LU.
    ///
    /// # Errors
    ///
    /// As [`SimWorkspace::factor`].
    ///
    /// # Panics
    ///
    /// As [`SimWorkspace::factor`], and if `slabs` is not the pair this
    /// corner's window factor condenses for `terms` and `full`.
    pub fn factor_terms(
        &mut self,
        grid: SimGrid,
        eps: &Array2<f64>,
        terms: &Arc<WindowTerms>,
        full: bool,
        slabs: Option<&SlabPair>,
    ) -> Result<(), SingularMatrixError> {
        let need = Need {
            terms: Some(terms),
            factor: full,
        };
        self.factor_corner(grid, terms.omega(), eps, slabs, need)?;
        self.terms = Some(Arc::clone(terms));
        if !full {
            self.window_only = self.window_split(&grid);
        }
        Ok(())
    }

    /// Selects `(grid, ω)`'s slot and writes the operator diagonal of
    /// `eps` into `self.diag`.
    fn load_diag(&mut self, grid: SimGrid, omega: f64, eps: &Array2<f64>) {
        assert_eq!(
            eps.shape(),
            (grid.ny, grid.nx),
            "eps shape must be (ny, nx)"
        );
        self.ensure_geometry(grid, omega);
        self.slots[self.active]
            .stencil
            .diag_into(eps, &mut self.diag);
    }

    /// The design-window split of `grid`'s direct factors (`None`: plain).
    fn window_split(&self, grid: &SimGrid) -> Option<Split> {
        self.window_rows.as_ref().and_then(|r| Split::new(grid, r))
    }

    /// The slab pair [`SimWorkspace::factor_terms`] condenses for the
    /// direct corner `eps` on `grid` with `terms` and `full`, looked up or
    /// built in this workspace's [`SlabCache`] (`None` without window
    /// rows), for a direct fan-out to hand to the lane that factors the
    /// corner. A build runs here, in the cache's one build storage: a
    /// build holds a whole slab factor while it runs, so builds on several
    /// lanes would hold several. `lanes` raises the cache's budget to a
    /// factored pair per lane. The pair stays in the cache while anything
    /// holds it. The workspace's prepared corner, if any, is dropped:
    /// prepare one again before solving.
    ///
    /// # Panics
    ///
    /// Panics if `eps` does not have shape `(ny, nx)`.
    pub fn slab_pair(
        &mut self,
        grid: SimGrid,
        lanes: usize,
        eps: &Array2<f64>,
        terms: &Arc<WindowTerms>,
        full: bool,
    ) -> Option<SlabPair> {
        let split = self.window_split(&grid)?;
        self.factored = false;
        self.window.release_slabs();
        self.slabs.hold_lanes(lanes);
        self.load_diag(grid, terms.omega(), eps);
        let stencil = &self.slots[self.active].stencil;
        let need = Need {
            terms: Some(terms),
            factor: full,
        };
        Some(
            self.slabs
                .ensure(grid, self.omega, split, stencil, &self.diag, need),
        )
    }

    /// The slabs this workspace has built and keeps.
    pub fn slab_cache(&self) -> &SlabCache {
        &self.slabs
    }

    /// Factors the active slot's operator with diagonal `self.diag` and
    /// arms its direct solve mode: the direct preparation of
    /// [`SimWorkspace::factor`], [`SimWorkspace::factor_terms`], of a
    /// forced-direct corner and of the budget-miss fallback. With window
    /// rows it factors the window over slabs that serve `need` — `slabs`
    /// when given, else this workspace's cached ones
    /// ([`SolveMode::Window`] when they keep their factors,
    /// [`SolveMode::WindowTerms`] otherwise); an unusable slab or a
    /// singular window factor falls back to the plain factor
    /// ([`SolveMode::DirectLu`]), counted in the report.
    fn factor_direct(
        &mut self,
        slabs: Option<&SlabPair>,
        need: Need<'_>,
    ) -> Result<(), SingularMatrixError> {
        let grid = self.grid.expect("SimWorkspace not prepared");
        self.factored = false;
        if let Some(split) = self.window_split(&grid) {
            // Drop the previous corner's slabs first, so a cache miss can
            // reuse the storage of one it evicts.
            self.window.release_slabs();
            let stencil = &self.slots[self.active].stencil;
            let slabs = match slabs {
                Some(pair) => {
                    assert!(
                        pair.fits(grid, self.omega, split, &self.diag, &need),
                        "the slab pair is not this corner's"
                    );
                    pair.clone()
                }
                None => self
                    .slabs
                    .ensure(grid, self.omega, split, stencil, &self.diag, need),
            };
            if slabs.usable()
                && self
                    .window
                    .factor(grid, self.omega, split, stencil, &self.diag, slabs)
                    .is_ok()
            {
                self.factored = true;
                self.mode = if need.factor {
                    self.a_norm = stencil.norm_inf(&self.diag);
                    SolveMode::Window(split)
                } else {
                    SolveMode::WindowTerms(split)
                };
                return Ok(());
            }
            self.window.release_slabs();
            self.report.window_fallbacks += 1;
        }
        self.factor_plain()
    }

    /// Factors the active slot's operator with diagonal `self.diag` into
    /// the plain banded `self.lu` and arms [`SolveMode::DirectLu`].
    /// Resumes from the first cell whose diagonal differs from the one
    /// `lu` factors (see [`refactor_lu`]).
    fn factor_plain(&mut self) -> Result<(), SingularMatrixError> {
        let key = (self.grid.expect("SimWorkspace not prepared"), self.omega);
        if self.lu_key != Some(key) {
            self.lu_diag.clear();
            self.lu_key = Some(key);
        }
        self.factored = false;
        refactor_lu(
            &mut self.lu,
            &mut self.lu_diag,
            &self.slots[self.active].stencil,
            &self.diag,
        )?;
        self.factored = true;
        self.mode = SolveMode::DirectLu;
        Ok(())
    }

    /// Solves the prepared direct corner in place: on the window factor
    /// (backward-error checked; a failed check re-solves through the
    /// plain factor, counted in the report) or on the plain factor.
    fn solve_direct(
        &mut self,
        b: &mut [Complex64],
        nrhs: usize,
    ) -> Result<(), SingularMatrixError> {
        assert!(self.factored, "SimWorkspace not factored");
        if let SolveMode::Window(split) = self.mode {
            self.rhs.clear();
            self.rhs.extend_from_slice(b);
            let stencil = &self.slots[self.active].stencil;
            self.window.solve(stencil, split, b, nrhs);
            if backward_error_ok(
                stencil,
                &self.diag,
                self.a_norm,
                b,
                &self.rhs,
                &mut self.resid,
            ) {
                return Ok(());
            }
            self.leave_window()?;
            b.copy_from_slice(&self.rhs);
        }
        self.lu.solve_many(b, nrhs);
        Ok(())
    }

    /// Re-prepares the current corner on the plain banded LU after a
    /// window solve failed its check, counted in the report.
    fn leave_window(&mut self) -> Result<(), SingularMatrixError> {
        self.report.window_fallbacks += 1;
        self.report.factorizations += 1;
        self.window.release_slabs();
        self.factor_plain()
    }

    /// The unknowns the terms' solves of the prepared corner return: the
    /// design window's rows when it was prepared window-only (also after
    /// a fallback to the plain LU), the whole grid otherwise.
    ///
    /// # Panics
    ///
    /// Panics if no corner was prepared.
    pub fn window_unknowns(&self) -> std::ops::Range<usize> {
        let grid = self.grid.expect("SimWorkspace not prepared");
        self.window_only.map_or(0..grid.n(), |split| split.window())
    }

    /// The terms the prepared corner solves for.
    fn prepared_terms(&self) -> Arc<WindowTerms> {
        Arc::clone(self.terms.as_ref().expect("corner not prepared for terms"))
    }

    /// Forward solve of the corner prepared for terms
    /// ([`SimWorkspace::factor_terms`], or
    /// [`SimWorkspace::prepare_corner`] with [`CornerContext::terms`]):
    /// for each right-hand side of its terms, the solution on
    /// [`SimWorkspace::window_unknowns`] into `fields` (column-major, one
    /// column per excitation), and each output form's reading `w·E` of
    /// its excitation's solution into `amps`. A window-only corner sweeps
    /// no slab; a solve that fails its check on the window rows is
    /// re-solved on the plain banded LU (counted in the report). Every
    /// other corner solves the whole grid in its prepared mode, as
    /// [`SimWorkspace::solve_block`] would, and reads it exactly.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if a fallback factorisation fails.
    ///
    /// # Panics
    ///
    /// Panics if the corner was not prepared for terms.
    pub fn solve_terms(
        &mut self,
        fields: &mut Vec<Complex64>,
        amps: &mut Vec<Complex64>,
    ) -> Result<(), SingularMatrixError> {
        let terms = self.prepared_terms();
        let nexc = terms.excitations();
        if let SolveMode::WindowTerms(split) = self.mode {
            assert!(self.factored, "SimWorkspace not factored");
            let stencil = &self.slots[self.active].stencil;
            if self
                .window
                .solve_terms(stencil, &self.diag, split, fields, amps, &mut self.resid)
            {
                self.report.solves += nexc;
                return Ok(());
            }
            self.leave_window()?;
        }
        fields.clear();
        fields.extend_from_slice(terms.rhs());
        self.solve_prepared(fields, nexc)?;
        terms.read_into(fields, amps);
        keep_rows(fields, self.grid().n(), self.window_unknowns());
        Ok(())
    }

    /// Adjoint solve of the corner prepared for terms: for each
    /// excitation, the solution of `A·λ = Σ_f coef_f·w_f` over the output
    /// forms `f` that read it (the adjoint source of a reading `F(w·E)`
    /// has this shape), on [`SimWorkspace::window_unknowns`], into
    /// `lambdas` (column-major, exactly zero for an excitation with no
    /// non-zero coefficient). Only the excitations with a source are
    /// solved, packed into one block. The operator is complex-symmetric,
    /// so this is the adjoint solve. Modes, checks and fallbacks as in
    /// [`SimWorkspace::solve_terms`].
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if a fallback factorisation fails.
    ///
    /// # Panics
    ///
    /// Panics if the corner was not prepared for terms, or `coef` does
    /// not hold one coefficient per form.
    pub fn solve_terms_adjoint(
        &mut self,
        coef: &[Complex64],
        lambdas: &mut Vec<Complex64>,
    ) -> Result<(), SingularMatrixError> {
        let terms = self.prepared_terms();
        assert_eq!(coef.len(), terms.form_count(), "one coefficient per form");
        let nexc = terms.excitations();
        let active = (0..nexc).filter(|&e| terms.adjoint_active(coef, e)).count();
        let rows = self.window_unknowns();
        if active == 0 {
            lambdas.clear();
            lambdas.resize(nexc * rows.len(), Complex64::ZERO);
            return Ok(());
        }
        if let SolveMode::WindowTerms(split) = self.mode {
            assert!(self.factored, "SimWorkspace not factored");
            let stencil = &self.slots[self.active].stencil;
            if self.window.solve_terms_adjoint(
                stencil,
                &self.diag,
                split,
                coef,
                lambdas,
                &mut self.resid,
            ) {
                self.report.solves += active;
                return Ok(());
            }
            self.leave_window()?;
        }
        let n = self.grid().n();
        lambdas.clear();
        lambdas.resize(nexc * n, Complex64::ZERO);
        terms.accumulate_adjoint(coef, lambdas);
        // Pack the active columns to the front of the block so dead
        // excitations cost no solve, then move each solution back to its
        // excitation's column, last first, zeroing the column it left.
        let sourced = |e: &usize| terms.adjoint_active(coef, *e);
        for (pos, e) in (0..nexc).filter(sourced).enumerate() {
            if pos != e {
                lambdas.copy_within(e * n..(e + 1) * n, pos * n);
            }
        }
        self.solve_prepared(&mut lambdas[..active * n], active)?;
        for (pos, e) in (0..active).rev().zip((0..nexc).rev().filter(sourced)) {
            if pos != e {
                lambdas.copy_within(pos * n..(pos + 1) * n, e * n);
                lambdas[pos * n..(pos + 1) * n].fill(Complex64::ZERO);
            }
        }
        keep_rows(lambdas, n, rows);
        Ok(())
    }

    /// [`SimWorkspace::grad_eps_accumulate`] of a forward and adjoint
    /// solution pair of the terms' solves (on
    /// [`SimWorkspace::window_unknowns`]): the gradient on those rows —
    /// the window's of a window-only corner, nothing elsewhere; every
    /// row's otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the slices do not cover those unknowns or `out` does not
    /// match the grid.
    pub fn grad_eps_accumulate_window(
        &self,
        ez: &[Complex64],
        lambda: &[Complex64],
        out: &mut Array2<f64>,
    ) {
        let grid = self.grid();
        let window = self.window_unknowns();
        let rows = window.start / grid.nx..window.end / grid.nx;
        grad_eps_accumulate_rows(grid, self.sfactors(), self.omega, rows, ez, lambda, out);
    }

    /// Prepares a variation-corner evaluation under `strategy`.
    ///
    /// * [`SolverStrategy::Direct`] — identical to
    ///   [`SimWorkspace::factor`]: factor this corner (the window's
    ///   `L·D·Lᵀ` over cached slabs with window rows set, the plain
    ///   banded LU otherwise).
    /// * [`SolverStrategy::PreconditionedIterative`] — factors only the
    ///   **nominal** operator (once per [`CornerContext::epoch`], from
    ///   [`CornerContext::nominal_eps`]) and arms the matrix-free
    ///   iterative path for this corner: an `O(n)` diagonal rewrite
    ///   replaces the `O(n·b²)` factorisation. The nominal corner itself
    ///   (unless a [`FactorLag`] policy kept its factor stale) and corners
    ///   with [`CornerContext::force_direct`] solve directly — with window
    ///   rows set, forced corners on their own window factor, and so does
    ///   the nominal corner unless a [`FactorLag`] policy is set: without
    ///   one, a run whose every other corner falls back solves exactly as
    ///   under [`SolverStrategy::Direct`].
    ///
    /// Subsequent [`SimWorkspace::solve_block`] calls — and, under the
    /// iterative strategy with [`CornerContext::terms`],
    /// [`SimWorkspace::solve_terms`] and
    /// [`SimWorkspace::solve_terms_adjoint`] on the whole grid — dispatch
    /// on the prepared mode; [`SimWorkspace::last_report`] tells what
    /// happened. Steady-state corner preparation performs no heap
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if a required factorisation fails.
    ///
    /// # Panics
    ///
    /// Panics if `eps` does not have shape `(ny, nx)`, if the iterative
    /// strategy is selected without a [`CornerContext`], or if the
    /// context's terms belong to another ω.
    pub fn prepare_corner(
        &mut self,
        grid: SimGrid,
        omega: f64,
        eps: &Array2<f64>,
        strategy: SolverStrategy,
        ctx: Option<&CornerContext<'_>>,
    ) -> Result<(), SingularMatrixError> {
        let (tol, max_iters) = match strategy {
            SolverStrategy::Direct => return self.factor(grid, omega, eps),
            SolverStrategy::PreconditionedIterative { tol, max_iters } => (tol, max_iters),
        };
        self.report = CornerSolveReport {
            // The per-corner path always delivers converged results (the
            // direct fallback guarantees it); batched sweeps overwrite
            // this per corner.
            converged: true,
            ..CornerSolveReport::default()
        };
        let ctx = ctx.expect("iterative strategies require a CornerContext");
        assert!(
            ctx.terms.is_none_or(|t| t.omega() == omega),
            "corner terms belong to another ω"
        );
        self.terms = ctx.terms.cloned();
        self.window_only = None;
        assert_eq!(
            eps.shape(),
            (grid.ny, grid.nx),
            "eps shape must be (ny, nx)"
        );
        self.ensure_geometry(grid, omega);
        self.factored = false;
        let windowed = self.window_split(&grid).is_some();
        let slot = &mut self.slots[self.active];
        self.report.factorizations += refresh_nominal_banded(
            slot,
            &mut self.diag,
            ctx.nominal_eps,
            ctx.epoch,
            self.factor_lag,
        )?;
        // The nominal corner solves directly on the nominal factor
        // only while the factor actually *is* this epoch's nominal
        // operator; a lag-kept stale factor would silently answer last
        // epoch's physics, so the nominal corner then rides the
        // iterative path like any drifted corner (its "perturbation"
        // is the bounded diagonal drift — a few iterations). With design
        // window rows and no lag policy, a fresh nominal corner is
        // factored on the window path instead, like every other directly
        // solved corner, so a run whose every other corner falls back
        // solves exactly as under `Direct`. Under a lag policy no run can
        // match `Direct` (stale epochs solve the nominal corner
        // iteratively), and the fresh one keeps its free solve.
        let nominal_fresh = ctx.is_nominal && slot.factor_epoch == Some(ctx.epoch);
        if nominal_fresh && (self.factor_lag.is_some() || !windowed) {
            self.mode = SolveMode::NominalDirect;
        } else {
            slot.stencil.diag_into(eps, &mut self.diag);
            if ctx.force_direct || nominal_fresh {
                self.factor_direct(None, FULL_FIELD)?;
                self.report.factorizations += 1;
            } else {
                self.mode = SolveMode::Iterative { tol, max_iters };
                self.report.used_iterative = true;
            }
        }
        Ok(())
    }

    /// Solves `A X = B` for the prepared corner, `nrhs` column-major
    /// right-hand sides in `b` (overwritten with the solutions). The
    /// operator is complex-symmetric, so adjoint systems `Aᵀ λ = g` are
    /// solved by this same call.
    ///
    /// Direct modes run one batched triangular sweep; the iterative mode
    /// runs the fused-batch kernel as a batch of this one corner
    /// (nominal-factor-preconditioned BiCGSTAB, cold start) and, if any
    /// right-hand side misses its budget, transparently factors this
    /// corner and re-solves everything directly (recorded in
    /// [`SimWorkspace::last_report`] — the results are then bit-identical
    /// to the [`SolverStrategy::Direct`] path).
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if the direct fallback hits a
    /// singular operator.
    ///
    /// # Panics
    ///
    /// Panics if no corner is prepared, the corner was prepared
    /// window-only ([`SimWorkspace::factor_terms`] without `full`: its
    /// slabs keep no factor), or `b.len() != n·nrhs`.
    pub fn solve_block(
        &mut self,
        b: &mut [Complex64],
        nrhs: usize,
    ) -> Result<(), SingularMatrixError> {
        let n = self.grid.expect("SimWorkspace not prepared").n();
        assert_eq!(b.len(), n * nrhs, "solve_block dimension mismatch");
        assert!(
            self.window_only.is_none(),
            "solve_block after a window-only preparation: use solve_terms"
        );
        self.solve_prepared(b, nrhs)
    }

    /// [`SimWorkspace::solve_block`] in the prepared mode, whatever the
    /// preparation: the terms' solves reach the plain LU of a window-only
    /// corner here after a fallback.
    fn solve_prepared(
        &mut self,
        b: &mut [Complex64],
        nrhs: usize,
    ) -> Result<(), SingularMatrixError> {
        match self.mode {
            SolveMode::WindowTerms(_) => {
                unreachable!("window-only solves go through solve_terms")
            }
            SolveMode::DirectLu | SolveMode::Window(_) => {
                self.report.solves += nrhs;
                self.solve_direct(b, nrhs)?;
            }
            SolveMode::NominalDirect => {
                self.report.solves += nrhs;
                self.slots[self.active].nominal_lu.solve_many(b, nrhs);
            }
            SolveMode::Iterative { tol, max_iters } => {
                self.rhs.clear();
                self.rhs.extend_from_slice(b);
                let batch = Batch {
                    fused_slots: std::slice::from_ref(&self.active),
                    omega_of_corner: &[0],
                    diags: &self.diag,
                    cols_per_corner: nrhs,
                };
                let opts = IterativeOptions {
                    tol,
                    max_iters,
                    use_initial_guess: false,
                    threads: 1,
                };
                let stats = self
                    .engine
                    .solve(&mut self.slots, batch, &self.rhs, b, opts, None);
                merge_stats_into_reports(stats, std::slice::from_mut(&mut self.report), nrhs);
                if !self.report.converged {
                    // Budget miss: factor this corner and re-solve the
                    // snapshot directly; later solves of this corner go
                    // direct as well, and every column is converged.
                    self.report.converged = true;
                    self.report.fell_back = true;
                    self.report.factorizations += 1;
                    self.factor_direct(None, FULL_FIELD)?;
                    b.copy_from_slice(&self.rhs);
                    self.solve_direct(b, nrhs)?;
                }
            }
        }
        Ok(())
    }

    /// Element growth of the prepared direct corner factor: the largest
    /// term of its factor products over the largest `|a_ij|` of the
    /// operator — for the plain pivoted LU the largest `|u_ij|`, for the
    /// window path's `L·D·Lᵀ` factors the largest `|l_ik|·|d_k|·|l_jk|`
    /// ([`boson_num::banded::BandedLdl::max_abs_term`]) over the window
    /// factor and both slabs. A solve's backward error scales with it. `None` unless a
    /// direct corner is prepared.
    pub fn direct_factor_growth(&self) -> Option<f64> {
        let u = match (self.factored, self.mode) {
            (true, SolveMode::Window(_) | SolveMode::WindowTerms(_)) => self.window.max_abs_term(),
            (true, SolveMode::DirectLu) => self.lu.max_abs_upper(),
            _ => return None,
        };
        Some(u / self.slots[self.active].stencil.max_abs_entry(&self.diag))
    }

    /// What the solver did for the corner of the last
    /// [`SimWorkspace::prepare_corner`] or [`SimWorkspace::factor`] and
    /// its solves since (factorisations, iteration counts, residuals,
    /// fallback).
    pub fn last_report(&self) -> &CornerSolveReport {
        &self.report
    }

    /// Per-corner convergence reports of the current batch (filled by
    /// [`SimWorkspace::fused_batch_solve`]).
    pub fn batch_reports(&self) -> &[CornerSolveReport] {
        &self.batch_reports
    }

    /// Begins a **fused** (corner × ω) sweep: ensures the geometry caches
    /// and the epoch's nominal factorisation for **every** wavelength of
    /// `omegas` (each resident ω slot pinned for the duration of the
    /// batch), then clears the batch. Push corners with
    /// [`SimWorkspace::fused_batch_push`] — each tagged with its ω — and
    /// advance all of them in one lockstep sweep with
    /// [`SimWorkspace::fused_batch_solve`].
    ///
    /// Batching exists because the preconditioner sweeps are memory-bound
    /// on the factor image: sweeping the packed active columns of every
    /// corner at once reads each ω's factors one time per half-iteration
    /// for the whole batch instead of once per corner. Every column is
    /// preconditioned by its own ω's nominal factor and stencil-applied
    /// through its own ω's couplings, so a broadband robust iteration runs
    /// **one** batch, and a single-wavelength sweep is the one-ω case.
    ///
    /// Returns the number of nominal factorisations performed (one per ω
    /// whose cached nominal factor was stale for `epoch`).
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if a nominal operator is singular.
    ///
    /// # Panics
    ///
    /// Panics if `omegas` is empty or exceeds [`MAX_OMEGA_SLOTS`] (the
    /// batch needs every ω resident simultaneously), if `nominal_eps`
    /// does not have shape `(ny, nx)`, or if `strategy` is
    /// [`SolverStrategy::Direct`].
    pub fn fused_batch_begin(
        &mut self,
        grid: SimGrid,
        omegas: &[f64],
        nominal_eps: &Array2<f64>,
        epoch: u64,
        strategy: SolverStrategy,
    ) -> Result<usize, SingularMatrixError> {
        assert!(!omegas.is_empty(), "fused batch needs at least one ω");
        assert!(
            omegas.len() <= MAX_OMEGA_SLOTS,
            "fused batch carries {} wavelengths but the workspace retains \
             at most {} ω slots",
            omegas.len(),
            MAX_OMEGA_SLOTS
        );
        assert_eq!(
            nominal_eps.shape(),
            (grid.ny, grid.nx),
            "eps shape must be (ny, nx)"
        );
        let (tol, max_iters) = strategy
            .iterative_params()
            .expect("batched sweeps require an iterative strategy");
        let mut factorizations = 0;
        for &omega in omegas {
            self.ensure_geometry(grid, omega);
            factorizations += refresh_nominal_banded(
                &mut self.slots[self.active],
                &mut self.diag,
                nominal_eps,
                epoch,
                self.factor_lag,
            )?;
        }
        // Pin the batch's slots only after every geometry is ensured: the
        // insertion-time LRU stamps above guarantee the batch's own ωs
        // never evict each other, so each lookup must succeed.
        self.fused_slots.clear();
        for &omega in omegas {
            let idx = self
                .slots
                .iter()
                .position(|s| s.omega == omega)
                .expect("fused-batch ω evicted while ensuring its siblings");
            self.fused_slots.push(idx);
        }
        self.batch_diags.clear();
        self.batch_count = 0;
        self.fused_omega_of_corner.clear();
        self.batch_reports.clear();
        self.batch_opts = IterativeOptions {
            tol,
            max_iters,
            use_initial_guess: false,
            threads: 1,
        };
        Ok(factorizations)
    }

    /// Appends one corner operator (its diagonal, derived through the
    /// `omega_idx`-th batch wavelength's stencil) to the current fused
    /// batch; returns the corner's slot index. ω-grouped push order keeps
    /// each preconditioner run contiguous (required only for speed, not
    /// correctness).
    ///
    /// # Panics
    ///
    /// Panics if `omega_idx` is outside the ω list of the most recent
    /// [`SimWorkspace::fused_batch_begin`], or `eps` does not match its
    /// grid.
    pub fn fused_batch_push(&mut self, eps: &Array2<f64>, omega_idx: usize) -> usize {
        let slot_idx = *self
            .fused_slots
            .get(omega_idx)
            .expect("fused_batch_begin before fused_batch_push");
        let stencil = &self.slots[slot_idx].stencil;
        assert_eq!(eps.as_slice().len(), stencil.n(), "eps size mismatch");
        stencil.diag_into(eps, &mut self.diag);
        self.batch_diags.extend_from_slice(&self.diag);
        self.fused_omega_of_corner.push(omega_idx);
        let slot = self.batch_count;
        self.batch_count += 1;
        slot
    }

    /// Accumulates `dF/dε` at the `omega_idx`-th fused-batch wavelength
    /// (each corner of a fused sweep back-propagates through its own ω's
    /// stretch factors and `ω²`).
    ///
    /// # Panics
    ///
    /// Panics if `omega_idx` is outside the current fused batch's ω list
    /// or shapes mismatch.
    pub fn fused_grad_eps_accumulate(
        &self,
        omega_idx: usize,
        ez: &[Complex64],
        lambda: &[Complex64],
        out: &mut Array2<f64>,
    ) {
        let slot = &self.slots[self.fused_slots[omega_idx]];
        grad_eps_accumulate(
            self.grid.as_ref().expect("SimWorkspace not prepared"),
            &slot.sfactors,
            slot.omega,
            ez,
            lambda,
            out,
        );
    }

    /// Lockstep-solves `cols_per_corner` systems for every corner of the
    /// fused (corner × ω) batch: `b` holds the right-hand sides
    /// (corner-major, column-major within a corner) and the solutions
    /// land in `x`; with `use_initial_guess`, `x` carries warm starts
    /// (each corner's own ω's nominal solution) on entry.
    ///
    /// Every column advances through the one shared BiCGSTAB iteration,
    /// preconditioned by **its own ω's** nominal factor and
    /// stencil-applied through its own ω's couplings — columns are coupled
    /// only through sweep packing, never through values, so results are
    /// bit-identical to running K separate single-ω batches. When the
    /// packed active-column count reaches
    /// [`FUSED_SPLIT_MIN_COLS`] and `threads > 1`, each preconditioner
    /// run splits
    /// into independent contiguous column chunks dispatched on the
    /// process-wide `boson_num::pool` — no threads are spawned, and the
    /// per-column Krylov stages ride the same substrate (bit-identical
    /// at any thread count).
    ///
    /// With `recycle`, the solve also runs **cross-iteration Krylov
    /// recycling**: before the lockstep iteration starts, every column's
    /// initial guess is improved by the Galerkin projection of its
    /// residual onto its [`RecycleSpace`] (see
    /// [`boson_num::krylov::RecycleSpace::try_apply`] — applied through
    /// the same matrix-free operator the iteration uses, and guaranteed
    /// never to worsen a column, only skip); after the solve, every
    /// converged column's correction `x − x₀` is harvested back into its
    /// space for the next epoch. `recycle.keys[corner]` maps each batch
    /// corner to its store in `recycle.spaces`, shared by that corner's
    /// `cols_per_corner` columns. Results differ from the unrecycled
    /// solve only through the improved starting point — converged
    /// solutions satisfy the same residual tolerance.
    ///
    /// No direct fallback happens here: corners whose columns miss the
    /// budget are reported with `converged == false` in
    /// [`SimWorkspace::batch_reports`] and the caller re-evaluates them
    /// directly. Calling `fused_batch_solve` again (the adjoint phase)
    /// merges into the same per-corner reports.
    ///
    /// # Panics
    ///
    /// Panics if no fused batch is begun, the block lengths disagree with
    /// it, or `recycle.keys` is shorter than the batch.
    pub fn fused_batch_solve(
        &mut self,
        b: &[Complex64],
        x: &mut [Complex64],
        cols_per_corner: usize,
        use_initial_guess: bool,
        threads: usize,
        recycle: Option<FusedRecycle<'_>>,
    ) {
        assert!(
            !self.fused_slots.is_empty(),
            "fused_batch_begin before fused_batch_solve"
        );
        let batch = Batch {
            fused_slots: &self.fused_slots,
            omega_of_corner: &self.fused_omega_of_corner,
            diags: &self.batch_diags,
            cols_per_corner,
        };
        let opts = IterativeOptions {
            use_initial_guess,
            threads: threads.max(1),
            ..self.batch_opts
        };
        let stats = self
            .engine
            .solve(&mut self.slots, batch, b, x, opts, recycle);
        self.batch_reports.resize(
            self.batch_count,
            CornerSolveReport {
                converged: true,
                used_iterative: true,
                ..CornerSolveReport::default()
            },
        );
        merge_stats_into_reports(stats, &mut self.batch_reports, cols_per_corner);
    }

    /// Accumulates `dF/dε` from a forward field and its adjoint into a
    /// caller-owned `(ny, nx)` array (see [`grad_eps_accumulate`]).
    ///
    /// # Panics
    ///
    /// Panics if the workspace was never factored/prepared or shapes
    /// mismatch.
    pub fn grad_eps_accumulate(
        &self,
        ez: &[Complex64],
        lambda: &[Complex64],
        out: &mut Array2<f64>,
    ) {
        grad_eps_accumulate(self.grid(), self.sfactors(), self.omega, ez, lambda, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Axis, Sign};
    use crate::monitor::{FluxMonitor, ModalMonitor};
    use crate::operator::{assemble_banded, scale_source, scale_source_into};
    use crate::port::Port;
    use crate::source::ModalSource;
    use boson_num::c64;

    const LAMBDA: f64 = 1.55;

    fn omega() -> f64 {
        2.0 * std::f64::consts::PI / LAMBDA
    }

    /// Straight horizontal waveguide spanning the domain.
    fn straight_wg(grid: &SimGrid, half_width_cells: usize) -> Array2<f64> {
        let cy = grid.ny / 2;
        Array2::from_fn(grid.ny, grid.nx, |iy, _ix| {
            if iy >= cy - half_width_cells && iy < cy + half_width_cells {
                12.11
            } else {
                1.0
            }
        })
    }

    fn test_grid() -> SimGrid {
        // 3.0 × 2.5 µm at 50 nm, 10-cell PML.
        SimGrid::new(60, 50, 0.05, 10)
    }

    /// Forward field of the raw current `jz` through a direct workspace
    /// solve.
    fn direct_field(grid: SimGrid, eps: &Array2<f64>, jz: &[Complex64]) -> Vec<Complex64> {
        let mut ws = SimWorkspace::new();
        ws.factor(grid, omega(), eps).unwrap();
        let mut field = vec![Complex64::ZERO; grid.n()];
        scale_source_into(&grid, ws.sfactors(), omega(), jz, &mut field);
        ws.solve_block(&mut field, 1).unwrap();
        field
    }

    #[test]
    fn straight_waveguide_unity_transmission() {
        let grid = test_grid();
        let eps = straight_wg(&grid, 4); // 0.4 µm core

        let port_in = Port::new("in", Axis::X, 14, 10, 40);
        let port_out = Port::new("out", Axis::X, 45, 10, 40);
        let modes_in = port_in.solve_modes(&grid, &eps, omega(), 1);
        let modes_out = port_out.solve_modes(&grid, &eps, omega(), 1);
        assert_eq!(modes_in.len(), 1);

        let src = ModalSource::new(port_in.clone(), modes_in[0].clone(), Sign::Plus);
        let field = direct_field(grid, &eps, &src.current(&grid));

        let mon_in = ModalMonitor::new(
            &grid,
            &Port::new("ref", Axis::X, 18, 10, 40),
            &modes_in[0],
            Sign::Plus,
        );
        let mon_out = ModalMonitor::new(&grid, &port_out, &modes_out[0], Sign::Plus);
        let p_in = mon_in.power(&field);
        let p_out = mon_out.power(&field);
        assert!(p_in > 1e-6, "input power should be nonzero: {p_in}");
        let t = p_out / p_in;
        assert!(
            (t - 1.0).abs() < 0.02,
            "straight waveguide transmission = {t} (p_in={p_in}, p_out={p_out})"
        );
    }

    #[test]
    fn source_is_unidirectional() {
        let grid = test_grid();
        let eps = straight_wg(&grid, 4);
        let port_in = Port::new("in", Axis::X, 25, 10, 40);
        let modes = port_in.solve_modes(&grid, &eps, omega(), 1);
        let src = ModalSource::new(port_in, modes[0].clone(), Sign::Plus);
        let field = direct_field(grid, &eps, &src.current(&grid));
        // Backward power measured behind the source must be tiny.
        let mon_fwd = ModalMonitor::new(
            &grid,
            &Port::new("f", Axis::X, 40, 10, 40),
            &modes[0],
            Sign::Plus,
        );
        let mon_bwd = ModalMonitor::new(
            &grid,
            &Port::new("b", Axis::X, 15, 10, 40),
            &modes[0],
            Sign::Minus,
        );
        let pf = mon_fwd.power(&field);
        let pb = mon_bwd.power(&field);
        assert!(pf > 1e-6);
        assert!(pb / pf < 5e-3, "backward/forward = {}", pb / pf);
    }

    #[test]
    fn energy_conservation_flux_in_equals_flux_out() {
        let grid = test_grid();
        let eps = straight_wg(&grid, 4);
        let port_in = Port::new("in", Axis::X, 14, 10, 40);
        let modes = port_in.solve_modes(&grid, &eps, omega(), 1);
        let src = ModalSource::new(port_in, modes[0].clone(), Sign::Plus);
        let field = direct_field(grid, &eps, &src.current(&grid));
        let f1 = FluxMonitor::new("a", &grid, Axis::X, 20, 10, 40, Sign::Plus, omega());
        let f2 = FluxMonitor::new("b", &grid, Axis::X, 44, 10, 40, Sign::Plus, omega());
        let p1 = f1.power(&field);
        let p2 = f2.power(&field);
        assert!(p1 > 0.0);
        assert!(
            (p1 - p2).abs() / p1 < 0.02,
            "flux not conserved: {p1} vs {p2}"
        );
    }

    #[test]
    fn pml_absorbs_radiation() {
        // A line source in vacuum: total outgoing flux through a box must
        // be (nearly) independent of the box size — no reflections.
        let grid = SimGrid::new(60, 60, 0.05, 12);
        let eps = Array2::filled(60, 60, 1.0);
        let mut jz = vec![Complex64::ZERO; grid.n()];
        jz[grid.idx(30, 30)] = Complex64::ONE;
        let field = direct_field(grid, &eps, &jz);
        let box_flux = |half: usize| -> f64 {
            let (c, lo, hi) = (30usize, 30 - half, 30 + half);
            let _ = c;
            let right = FluxMonitor::new("r", &grid, Axis::X, hi, lo, hi, Sign::Plus, omega());
            let left = FluxMonitor::new("l", &grid, Axis::X, lo, lo, hi, Sign::Minus, omega());
            let top = FluxMonitor::new("t", &grid, Axis::Y, hi, lo, hi, Sign::Plus, omega());
            let bot = FluxMonitor::new("b", &grid, Axis::Y, lo, lo, hi, Sign::Minus, omega());
            right.power(&field) + left.power(&field) + top.power(&field) + bot.power(&field)
        };
        let p_small = box_flux(8);
        let p_large = box_flux(14);
        assert!(p_small > 0.0);
        assert!(
            (p_small - p_large).abs() / p_small < 0.05,
            "PML reflection detected: {p_small} vs {p_large}"
        );
    }

    /// The symmetrised operator is complex-symmetric (`Aᵀ = A`, checked
    /// entry by entry), so its transpose solve is its plain solve: why
    /// every adjoint runs through [`SimWorkspace::solve_block`] and the
    /// fused kernel, which have no transpose orientation.
    #[test]
    fn adjoint_transpose_consistency() {
        let grid = SimGrid::new(40, 36, 0.05, 8);
        let eps = straight_wg(&grid, 3);
        let om = omega();
        let a = assemble_banded(&grid, &SFactors::new(&grid, om), &eps, om);
        assert!(
            a.asymmetry() < 1e-13,
            "operator not symmetric: asymmetry {}",
            a.asymmetry()
        );
    }

    /// One multi-RHS `solve_block` equals solving each column on its own.
    #[test]
    fn batched_solves_match_individual_solves() {
        let grid = SimGrid::new(36, 30, 0.05, 8);
        let eps = straight_wg(&grid, 3);
        let mut ws = SimWorkspace::new();
        ws.factor(grid, omega(), &eps).unwrap();
        let n = grid.n();

        let mut jz1 = vec![Complex64::ZERO; n];
        jz1[grid.idx(14, 15)] = Complex64::ONE;
        let mut jz2 = vec![Complex64::ZERO; n];
        jz2[grid.idx(20, 12)] = c64(0.0, 2.0);
        jz2[grid.idx(21, 12)] = c64(-1.0, 0.0);

        let mut f1 = vec![Complex64::ZERO; n];
        let mut f2 = vec![Complex64::ZERO; n];
        scale_source_into(&grid, ws.sfactors(), omega(), &jz1, &mut f1);
        scale_source_into(&grid, ws.sfactors(), omega(), &jz2, &mut f2);
        let mut block: Vec<Complex64> = f1.iter().chain(&f2).copied().collect();
        ws.solve_block(&mut f1, 1).unwrap();
        ws.solve_block(&mut f2, 1).unwrap();
        ws.solve_block(&mut block, 2).unwrap();
        for (p, q) in f1.iter().zip(&block[..n]) {
            assert!((*p - *q).abs() < 1e-11);
        }
        for (p, q) in f2.iter().zip(&block[n..]) {
            assert!((*p - *q).abs() < 1e-11);
        }
    }

    /// A reused workspace answers every corner exactly like a fresh
    /// assemble-and-factor of that corner alone: forward field, adjoint
    /// and accumulated gradient.
    #[test]
    fn workspace_reuse_matches_fresh_simulation_across_corners() {
        let grid = SimGrid::new(40, 36, 0.05, 8);
        let om = omega();
        let mut ws = SimWorkspace::new();
        let mut field_ws = vec![Complex64::ZERO; grid.n()];
        for corner in 0..3 {
            let mut eps = straight_wg(&grid, 3);
            eps[(18, 20)] = 4.0 + corner as f64; // per-corner perturbation
            let sf = SFactors::new(&grid, om);
            let lu = assemble_banded(&grid, &sf, &eps, om).factor().unwrap();
            ws.factor(grid, om, &eps).unwrap();

            let port = Port::new("in", Axis::X, 12, 9, 27);
            let modes = port.solve_modes(&grid, &eps, om, 1);
            let src = ModalSource::new(port, modes[0].clone(), Sign::Plus);
            let jz = src.current(&grid);

            let mut fresh = scale_source(&grid, &sf, om, &jz);
            lu.solve(&mut fresh);
            scale_source_into(&grid, ws.sfactors(), om, &jz, &mut field_ws);
            ws.solve_block(&mut field_ws, 1).unwrap();
            for (p, q) in fresh.iter().zip(&field_ws) {
                assert!((*p - *q).abs() < 1e-10, "corner {corner}");
            }

            let g: Vec<Complex64> = (0..grid.n())
                .map(|k| c64((k as f64 * 0.011).sin(), (k as f64 * 0.017).cos()))
                .collect();
            let mut lam_fresh = g.clone();
            lu.solve(&mut lam_fresh);
            let mut lam_ws = g.clone();
            ws.solve_block(&mut lam_ws, 1).unwrap();
            for (p, q) in lam_fresh.iter().zip(&lam_ws) {
                assert!((*p - *q).abs() < 1e-10, "corner {corner}");
            }

            let mut dense = Array2::zeros(grid.ny, grid.nx);
            grad_eps_accumulate(&grid, &sf, om, &fresh, &lam_fresh, &mut dense);
            let mut accum = Array2::zeros(grid.ny, grid.nx);
            ws.grad_eps_accumulate(&field_ws, &lam_ws, &mut accum);
            for (p, q) in dense.as_slice().iter().zip(accum.as_slice()) {
                assert!((p - q).abs() < 1e-10 * (1.0 + p.abs()), "corner {corner}");
            }
        }
    }

    /// Solves a two-column block on the prepared corner of `ws` and checks
    /// it bit for bit against a fresh `assemble_banded(..).factor()` of
    /// `eps`.
    fn assert_matches_fresh_factor(
        ws: &mut SimWorkspace,
        grid: SimGrid,
        om: f64,
        eps: &Array2<f64>,
        what: &str,
    ) {
        let fresh = assemble_banded(&grid, &SFactors::new(&grid, om), eps, om)
            .factor()
            .unwrap();
        let n = grid.n();
        let b: Vec<Complex64> = (0..2 * n)
            .map(|k| c64((k as f64 * 0.37).sin(), (k as f64 * 0.11).cos()))
            .collect();
        let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        let (mut got, mut want) = (b.clone(), b);
        ws.solve_block(&mut got, 2).unwrap();
        fresh.solve_many(&mut want, 2);
        assert!(bits(&got) == bits(&want), "{what}: solve differs");
    }

    /// Every factorisation resumes from the first cell whose operator
    /// diagonal differs from the one its storage factors, and still
    /// answers exactly like a fresh factor of the corner alone, through
    /// every path that factors: direct corners (window changes, earlier
    /// temperature-style changes, ω and grid switches), forced-direct
    /// corners, the budget-miss fallback and nominal refreshes with and
    /// without a factor lag.
    #[test]
    fn in_place_refactors_match_fresh_factors_through_a_corner_sequence() {
        let grid = SimGrid::new(24, 22, 0.05, 6);
        let om = omega();
        let om2 = 2.0 * std::f64::consts::PI / 1.50;
        // An input guide in rows 4..6, a design window in rows 9..15.
        let base = Array2::from_fn(grid.ny, grid.nx, |iy, ix| {
            if (4..6).contains(&iy) || ((9..15).contains(&iy) && (8..16).contains(&ix)) {
                12.11
            } else {
                1.0
            }
        });
        let with = |eps: &Array2<f64>, cells: &[(usize, usize)], v: f64| {
            let mut e = eps.clone();
            for &(iy, ix) in cells {
                e[(iy, ix)] = v;
            }
            e
        };
        let temperature =
            |eps: &Array2<f64>, dt: f64| eps.map(|&e| if e > 1.0 { e + dt } else { e });
        let mut ws = SimWorkspace::new();

        let mut eps = base.clone();
        ws.factor(grid, om, &eps).unwrap();
        assert_matches_fresh_factor(&mut ws, grid, om, &eps, "first corner");
        for (step, cells) in [
            &[(13usize, 12usize)][..],
            &[(10, 9)],          // before the previous start
            &[(14, 15), (9, 8)], // the window's first cell
            &[(12, 10)],
        ]
        .into_iter()
        .enumerate()
        {
            eps = with(&eps, cells, 4.0 + step as f64);
            ws.factor(grid, om, &eps).unwrap();
            assert_matches_fresh_factor(&mut ws, grid, om, &eps, &format!("window {step}"));
        }
        // Temperature shifts change the guide too: an earlier first change.
        eps = temperature(&eps, 0.05);
        ws.factor(grid, om, &eps).unwrap();
        assert_matches_fresh_factor(&mut ws, grid, om, &eps, "temperature");
        ws.factor(grid, om, &base).unwrap();
        assert_matches_fresh_factor(&mut ws, grid, om, &base, "back to base");
        // ω switch and back.
        ws.factor(grid, om2, &eps).unwrap();
        assert_matches_fresh_factor(&mut ws, grid, om2, &eps, "omega switch");
        ws.factor(grid, om, &eps).unwrap();
        assert_matches_fresh_factor(&mut ws, grid, om, &eps, "omega back");
        // Grid switch (same cell count, another band) and back.
        let tall = SimGrid::new(22, 24, 0.05, 6);
        let tall_eps =
            Array2::from_fn(tall.ny, tall.nx, |iy, _| if iy == 11 { 12.11 } else { 1.0 });
        ws.factor(tall, om, &tall_eps).unwrap();
        assert_matches_fresh_factor(&mut ws, tall, om, &tall_eps, "grid switch");
        ws.factor(grid, om, &eps).unwrap();
        assert_matches_fresh_factor(&mut ws, grid, om, &eps, "grid back");

        // The iterative strategy's factor sites.
        let strategy = SolverStrategy::preconditioned_iterative();
        let miss = SolverStrategy::PreconditionedIterative {
            tol: 1e-14,
            max_iters: 1,
        };
        let mut nominal = base.clone();
        let mut epoch = 0;
        let corner = |ws: &mut SimWorkspace,
                      nominal: &Array2<f64>,
                      epoch: u64,
                      eps: &Array2<f64>,
                      strategy: SolverStrategy,
                      is_nominal: bool,
                      force_direct: bool| {
            let ctx = CornerContext {
                nominal_eps: nominal,
                epoch,
                is_nominal,
                force_direct,
                terms: None,
            };
            ws.prepare_corner(grid, om, eps, strategy, Some(&ctx))
                .unwrap();
        };
        for (pass, lag) in [
            None,
            Some(FactorLag {
                max_lag: 8,
                drift_tol: 1e-3,
            }),
        ]
        .into_iter()
        .enumerate()
        {
            ws.set_factor_lag(lag);
            for round in 0..3 {
                epoch += 1;
                // A window change in the nominal: the refresh resumes.
                let v = 3.0 + (round + 3 * pass) as f64;
                nominal = with(&nominal, &[(11 + round, 9 + 2 * round)], v);
                corner(&mut ws, &nominal, epoch, &nominal, strategy, true, false);
                assert_eq!(
                    ws.last_report().factorizations,
                    1,
                    "nominal refresh {epoch}"
                );
                assert!(!ws.last_report().used_iterative);
                assert_matches_fresh_factor(&mut ws, grid, om, &nominal, "nominal");
                let forced = temperature(&nominal, 0.02 * (round + 1) as f64);
                corner(&mut ws, &nominal, epoch, &forced, strategy, false, true);
                assert_matches_fresh_factor(&mut ws, grid, om, &forced, "force_direct");
                let hard = with(&nominal, &[(14, 8 + round), (15, 3)], 9.0);
                corner(&mut ws, &nominal, epoch, &hard, miss, false, false);
                assert_matches_fresh_factor(&mut ws, grid, om, &hard, "fallback");
                assert!(ws.last_report().fell_back, "epoch {epoch}: no budget miss");
            }
            if lag.is_some() {
                // A drift below the lag's tolerance keeps the stale factor …
                epoch += 1;
                nominal = temperature(&nominal, 1e-9);
                corner(&mut ws, &nominal, epoch, &nominal, strategy, true, false);
                assert_eq!(ws.last_report().factorizations, 0);
                // … and the next refresh resumes against the diagonal that
                // factor was built from, not the kept epoch's.
                epoch += 1;
                nominal = with(&nominal, &[(12, 12)], 7.0);
                corner(&mut ws, &nominal, epoch, &nominal, strategy, true, false);
                assert_eq!(ws.last_report().factorizations, 1);
                assert_matches_fresh_factor(&mut ws, grid, om, &nominal, "lagged refresh");
            }
        }
    }

    /// `factor` starts a new corner: its report must not inherit the
    /// iterations, flags or factorisation count of the corner before.
    #[test]
    fn factor_resets_the_report_of_the_previous_corner() {
        let grid = SimGrid::new(40, 36, 0.05, 8);
        let corners = corner_family(&grid);
        let nominal = corners[0].clone();
        let n = grid.n();
        let b: Vec<Complex64> = (0..n).map(|k| c64((k as f64 * 0.01).sin(), 0.3)).collect();
        let mut ws = SimWorkspace::new();
        let ctx = CornerContext {
            nominal_eps: &nominal,
            epoch: 1,
            is_nominal: false,
            force_direct: false,
            terms: None,
        };
        ws.prepare_corner(
            grid,
            omega(),
            &corners[1],
            SolverStrategy::preconditioned_iterative(),
            Some(&ctx),
        )
        .unwrap();
        let mut x = b.clone();
        ws.solve_block(&mut x, 1).unwrap();
        assert!(ws.last_report().used_iterative);
        assert!(ws.last_report().total_iterations > 0);

        ws.factor(grid, omega(), &corners[2]).unwrap();
        let mut x = b.clone();
        ws.solve_block(&mut x, 1).unwrap();
        assert_eq!(
            *ws.last_report(),
            CornerSolveReport {
                converged: true,
                factorizations: 1,
                solves: 1,
                ..CornerSolveReport::default()
            }
        );
    }

    /// Corner permittivities around a nominal waveguide: index 0 is the
    /// nominal map, the rest perturb it with temperature-style shifts and
    /// a litho-style blob.
    fn corner_family(grid: &SimGrid) -> Vec<Array2<f64>> {
        let nominal = straight_wg(grid, 3);
        let mut corners = vec![nominal.clone()];
        for k in 1..4 {
            let mut eps = nominal.clone();
            for v in eps.as_mut_slice().iter_mut() {
                if *v > 1.0 {
                    *v += 0.02 * k as f64; // dn/dT-style global core shift
                }
            }
            eps[(18, 20)] += 0.4 * k as f64; // local etch-style defect
            corners.push(eps);
        }
        corners
    }

    #[test]
    fn iterative_corner_solves_match_direct_within_tolerance() {
        let grid = SimGrid::new(40, 36, 0.05, 8);
        let corners = corner_family(&grid);
        let nominal = corners[0].clone();
        let tol = 1e-9;
        let strategy = SolverStrategy::PreconditionedIterative { tol, max_iters: 30 };
        let mut ws = SimWorkspace::new();
        let n = grid.n();
        let b: Vec<Complex64> = (0..2 * n)
            .map(|k| c64((k as f64 * 0.013).sin(), (k as f64 * 0.007).cos()))
            .collect();
        for (ci, eps) in corners.iter().enumerate() {
            let ctx = CornerContext {
                nominal_eps: &nominal,
                epoch: 1,
                is_nominal: ci == 0,
                force_direct: false,
                terms: None,
            };
            ws.prepare_corner(grid, omega(), eps, strategy, Some(&ctx))
                .unwrap();
            let mut x_iter = b.clone();
            ws.solve_block(&mut x_iter, 2).unwrap();
            let report = ws.last_report().clone();
            assert!(!report.fell_back, "corner {ci} fell back: {report:?}");
            if ci > 0 {
                assert!(report.used_iterative);
                assert!(report.max_residual <= tol * 10.0, "{report:?}");
            }

            let mut ws_direct = SimWorkspace::new();
            ws_direct.factor(grid, omega(), eps).unwrap();
            let mut x_direct = b.clone();
            ws_direct.solve_block(&mut x_direct, 2).unwrap();
            let scale: f64 = x_direct.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
            let err: f64 = x_iter
                .iter()
                .zip(&x_direct)
                .map(|(p, q)| (*p - *q).norm_sqr())
                .sum::<f64>()
                .sqrt();
            assert!(
                err / scale < 1e-7,
                "corner {ci}: iterative vs direct rel err {}",
                err / scale
            );
        }
    }

    #[test]
    fn forced_direct_corner_is_bit_identical_to_direct_strategy() {
        let grid = SimGrid::new(40, 36, 0.05, 8);
        let corners = corner_family(&grid);
        let nominal = corners[0].clone();
        let strategy = SolverStrategy::preconditioned_iterative();
        let n = grid.n();
        let b: Vec<Complex64> = (0..n)
            .map(|k| c64((k as f64 * 0.021).cos(), (k as f64 * 0.011).sin()))
            .collect();
        for eps in &corners[1..] {
            let mut ws = SimWorkspace::new();
            let ctx = CornerContext {
                nominal_eps: &nominal,
                epoch: 7,
                is_nominal: false,
                force_direct: true,
                terms: None,
            };
            ws.prepare_corner(grid, omega(), eps, strategy, Some(&ctx))
                .unwrap();
            let report = ws.last_report();
            assert!(!report.used_iterative);
            assert_eq!(report.factorizations, 2, "nominal + forced direct");
            let mut x_forced = b.clone();
            ws.solve_block(&mut x_forced, 1).unwrap();

            let mut ws_direct = SimWorkspace::new();
            ws_direct
                .prepare_corner(grid, omega(), eps, SolverStrategy::Direct, None)
                .unwrap();
            let mut x_direct = b.clone();
            ws_direct.solve_block(&mut x_direct, 1).unwrap();
            assert_eq!(x_forced, x_direct, "forced fallback must be bit-identical");
        }
    }

    #[test]
    fn budget_miss_falls_back_to_direct_and_stays_accurate() {
        let grid = SimGrid::new(40, 36, 0.05, 8);
        let nominal = straight_wg(&grid, 3);
        // A violently perturbed corner: half the domain changes index, so
        // the nominal factor is a poor preconditioner.
        let mut hard = nominal.clone();
        for iy in 0..18 {
            for ix in 0..40 {
                hard[(iy, ix)] += 6.0;
            }
        }
        let strategy = SolverStrategy::PreconditionedIterative {
            tol: 1e-10,
            max_iters: 2,
        };
        let ctx = CornerContext {
            nominal_eps: &nominal,
            epoch: 3,
            is_nominal: false,
            force_direct: false,
            terms: None,
        };
        let mut ws = SimWorkspace::new();
        ws.prepare_corner(grid, omega(), &hard, strategy, Some(&ctx))
            .unwrap();
        let n = grid.n();
        let b: Vec<Complex64> = (0..n).map(|k| c64((k as f64 * 0.01).sin(), 0.3)).collect();
        let mut x = b.clone();
        ws.solve_block(&mut x, 1).unwrap();
        let report = ws.last_report().clone();
        assert!(report.used_iterative);
        assert!(report.fell_back, "{report:?}");
        assert_eq!(report.factorizations, 2, "nominal + fallback");

        // The fallback result is bit-identical to the direct strategy.
        let mut ws_direct = SimWorkspace::new();
        ws_direct.factor(grid, omega(), &hard).unwrap();
        let mut x_direct = b.clone();
        ws_direct.solve_block(&mut x_direct, 1).unwrap();
        assert_eq!(x, x_direct);

        // After the fallback the corner is in direct mode: later solves
        // (e.g. the adjoint block) go through the fresh factors.
        let mut x2 = b.clone();
        ws.solve_block(&mut x2, 1).unwrap();
        assert_eq!(x2, x_direct);
        assert!(!ws.last_report().fell_back || ws.last_report().fell_back); // report persists per corner
    }

    /// The batched lockstep sweep performs exactly the per-column
    /// arithmetic of the per-corner path (columns are coupled only
    /// through sweep *packing*, never through values), so its results are
    /// bit-identical.
    #[test]
    fn batched_sweep_is_bit_identical_to_per_corner_iterative() {
        let grid = SimGrid::new(40, 36, 0.05, 8);
        let corners = corner_family(&grid);
        let nominal = corners[0].clone();
        let (tol, max_iters) = (1e-6, 24);
        let n = grid.n();
        let b: Vec<Complex64> = (0..n)
            .map(|k| c64((k as f64 * 0.013).sin(), (k as f64 * 0.007).cos()))
            .collect();

        // Batched: all non-nominal corners at once, one wavelength.
        let mut ws = SimWorkspace::new();
        ws.fused_batch_begin(
            grid,
            &[omega()],
            &nominal,
            5,
            SolverStrategy::PreconditionedIterative { tol, max_iters },
        )
        .unwrap();
        for eps in &corners[1..] {
            ws.fused_batch_push(eps, 0);
        }
        let ncorner = corners.len() - 1;
        let mut rhs = vec![Complex64::ZERO; n * ncorner];
        for c in 0..ncorner {
            rhs[c * n..(c + 1) * n].copy_from_slice(&b);
        }
        let mut x = vec![Complex64::ZERO; n * ncorner];
        ws.fused_batch_solve(&rhs, &mut x, 1, false, 1, None);
        assert!(ws.batch_reports().iter().all(|r| r.converged));
        assert_eq!(ws.batch_reports().len(), ncorner);

        // Per-corner path, same tolerance.
        let strategy = SolverStrategy::PreconditionedIterative { tol, max_iters };
        for (c, eps) in corners[1..].iter().enumerate() {
            let mut ws1 = SimWorkspace::new();
            let ctx = CornerContext {
                nominal_eps: &nominal,
                epoch: 5,
                is_nominal: false,
                force_direct: false,
                terms: None,
            };
            ws1.prepare_corner(grid, omega(), eps, strategy, Some(&ctx))
                .unwrap();
            let mut x1 = b.clone();
            ws1.solve_block(&mut x1, 1).unwrap();
            assert!(!ws1.last_report().fell_back);
            assert_eq!(
                &x[c * n..(c + 1) * n],
                x1.as_slice(),
                "corner {c} diverged from the per-corner path"
            );
        }
    }

    #[test]
    fn nominal_factor_is_reused_across_corners_and_epochs() {
        let grid = SimGrid::new(40, 36, 0.05, 8);
        let corners = corner_family(&grid);
        let nominal = corners[0].clone();
        let strategy = SolverStrategy::preconditioned_iterative();
        let mut ws = SimWorkspace::new();
        let mut total_factorizations = 0usize;
        let n = grid.n();
        let b: Vec<Complex64> = (0..n).map(|k| c64(0.1 * k as f64, -0.2)).collect();
        for epoch in 0..2u64 {
            for (ci, eps) in corners.iter().enumerate() {
                let ctx = CornerContext {
                    nominal_eps: &nominal,
                    epoch,
                    is_nominal: ci == 0,
                    force_direct: false,
                    terms: None,
                };
                ws.prepare_corner(grid, omega(), eps, strategy, Some(&ctx))
                    .unwrap();
                let mut x = b.clone();
                ws.solve_block(&mut x, 1).unwrap();
                assert!(!ws.last_report().fell_back, "corner {ci} fell back");
                total_factorizations += ws.last_report().factorizations;
            }
        }
        // One nominal factorisation per epoch, nothing else.
        assert_eq!(total_factorizations, 2);
    }

    /// Per-ω slots: alternating between wavelengths keeps each ω's
    /// nominal factor resident, so one epoch pays exactly one nominal
    /// factorisation per ω — and revisiting an ω reproduces the result a
    /// dedicated single-ω workspace computes, bit-for-bit.
    #[test]
    fn omega_slots_cache_nominal_factors_per_wavelength() {
        let grid = SimGrid::new(40, 36, 0.05, 8);
        let corners = corner_family(&grid);
        let nominal = corners[0].clone();
        let strategy = SolverStrategy::preconditioned_iterative();
        let omegas = [omega(), omega() * 1.02, omega() * 0.98];
        let n = grid.n();
        let b: Vec<Complex64> = (0..n)
            .map(|k| c64((k as f64 * 0.013).sin(), (k as f64 * 0.007).cos()))
            .collect();

        let mut ws = SimWorkspace::new();
        let mut total_factorizations = 0usize;
        let mut multi: Vec<Vec<Complex64>> = Vec::new();
        for epoch in 0..2u64 {
            // ω-interleaved sweep: (ω0 c0) (ω1 c0) (ω2 c0) (ω0 c1) …
            for (ci, eps) in corners.iter().enumerate() {
                for &om in &omegas {
                    let ctx = CornerContext {
                        nominal_eps: &nominal,
                        epoch,
                        is_nominal: ci == 0,
                        force_direct: false,
                        terms: None,
                    };
                    ws.prepare_corner(grid, om, eps, strategy, Some(&ctx))
                        .unwrap();
                    let mut x = b.clone();
                    ws.solve_block(&mut x, 1).unwrap();
                    assert!(!ws.last_report().fell_back, "corner {ci} ω {om}");
                    total_factorizations += ws.last_report().factorizations;
                    if epoch == 0 {
                        multi.push(x);
                    }
                }
            }
        }
        // One nominal factorisation per (ω, epoch) — the ω slots never
        // evict each other across the interleaved revisits.
        assert_eq!(total_factorizations, omegas.len() * 2);
        assert_eq!(ws.omega_slot_count(), omegas.len());

        // Each (corner, ω) solution is bit-identical to a fresh single-ω
        // workspace.
        for (ci, eps) in corners.iter().enumerate() {
            for (oi, &om) in omegas.iter().enumerate() {
                let mut ws1 = SimWorkspace::new();
                let ctx = CornerContext {
                    nominal_eps: &nominal,
                    epoch: 0,
                    is_nominal: ci == 0,
                    force_direct: false,
                    terms: None,
                };
                ws1.prepare_corner(grid, om, eps, strategy, Some(&ctx))
                    .unwrap();
                let mut x1 = b.clone();
                ws1.solve_block(&mut x1, 1).unwrap();
                assert_eq!(
                    multi[ci * omegas.len() + oi],
                    x1,
                    "corner {ci} ω index {oi}"
                );
            }
        }
    }

    #[test]
    fn omega_slot_cache_is_bounded_and_evicts_lru() {
        let grid = SimGrid::new(30, 26, 0.05, 6);
        let eps = straight_wg(&grid, 3);
        let mut ws = SimWorkspace::new();
        let om_of = |k: usize| omega() * (1.0 + 0.01 * k as f64);
        for k in 0..(MAX_OMEGA_SLOTS + 3) {
            ws.factor(grid, om_of(k), &eps).unwrap();
        }
        assert_eq!(ws.omega_slot_count(), MAX_OMEGA_SLOTS);

        // Interleaved-revisit order with K = MAX_OMEGA_SLOTS + 1: each new
        // ω must evict the **least recently used** slot, never the slot
        // that was just built. (A slot inserted with stamp 0 instead of
        // the current clock would immediately be the LRU minimum and the
        // cache would thrash: every insertion evicting the previous one.)
        let mut ws = SimWorkspace::new();
        for k in 0..MAX_OMEGA_SLOTS {
            ws.factor(grid, om_of(k), &eps).unwrap();
        }
        // ω_MAX is new: evicts ω0 (the LRU), then must itself be resident.
        ws.factor(grid, om_of(MAX_OMEGA_SLOTS), &eps).unwrap();
        assert!(ws.slots.iter().all(|s| s.omega != om_of(0)));
        assert!(ws.slots.iter().any(|s| s.omega == om_of(MAX_OMEGA_SLOTS)));
        // Revisiting ω0 (now cold) must evict ω1 — the true LRU — and NOT
        // the just-built ω_MAX slot.
        ws.factor(grid, om_of(0), &eps).unwrap();
        assert!(ws.slots.iter().all(|s| s.omega != om_of(1)));
        assert!(
            ws.slots.iter().any(|s| s.omega == om_of(MAX_OMEGA_SLOTS)),
            "freshly built slot was thrashed out by the next insertion"
        );
        // Continue the interleaved cycle one more step: ω1 evicts ω2.
        ws.factor(grid, om_of(1), &eps).unwrap();
        assert!(ws.slots.iter().all(|s| s.omega != om_of(2)));
        for survivor in [0, 1, MAX_OMEGA_SLOTS] {
            assert!(
                ws.slots.iter().any(|s| s.omega == om_of(survivor)),
                "ω{survivor} should be resident"
            );
        }

        // A grid change clears every slot.
        let grid2 = SimGrid::new(32, 26, 0.05, 6);
        let eps2 = Array2::filled(26, 32, 1.0);
        ws.factor(grid2, omega(), &eps2).unwrap();
        assert_eq!(ws.omega_slot_count(), 1);
    }

    /// The fused (corner × ω) batch performs, per column, exactly the
    /// single-ω batch's arithmetic — its own ω's stencil apply, its own
    /// ω's nominal-factor preconditioner sweep — so fusing K single-ω
    /// batches into one lockstep batch is bit-identical, forwards and
    /// (merged) second-phase solves alike.
    #[test]
    fn fused_cross_omega_batch_is_bit_identical_to_per_omega_batches() {
        let grid = SimGrid::new(40, 36, 0.05, 8);
        let corners = corner_family(&grid);
        let nominal = corners[0].clone();
        let omegas = [omega(), omega() * 1.02, omega() * 0.98];
        let strategy = SolverStrategy::PreconditionedIterative {
            tol: 1e-6,
            max_iters: 24,
        };
        let n = grid.n();
        let b: Vec<Complex64> = (0..n)
            .map(|k| c64((k as f64 * 0.013).sin(), (k as f64 * 0.007).cos()))
            .collect();
        let ncorner = corners.len() - 1;
        // One lockstep batch over `oms` (ω-major), forward + second phase.
        let sweep = |oms: &[f64]| {
            let mut ws = SimWorkspace::new();
            ws.fused_batch_begin(grid, oms, &nominal, 5, strategy)
                .unwrap();
            for oi in 0..oms.len() {
                for eps in &corners[1..] {
                    ws.fused_batch_push(eps, oi);
                }
            }
            let total = ncorner * oms.len();
            let mut rhs = vec![Complex64::ZERO; n * total];
            for c in 0..total {
                rhs[c * n..(c + 1) * n].copy_from_slice(&b);
            }
            let mut x = vec![Complex64::ZERO; n * total];
            ws.fused_batch_solve(&rhs, &mut x, 1, false, 1, None);
            let mut x2 = vec![Complex64::ZERO; n * total];
            ws.fused_batch_solve(&rhs, &mut x2, 1, false, 1, None);
            (x, x2, ws.batch_reports().to_vec())
        };

        let (x, x2, reports) = sweep(&omegas);
        assert_eq!(reports.len(), ncorner * omegas.len());
        assert!(reports.iter().all(|r| r.converged));
        // Per-ω reference: K separate single-ω batches.
        for (oi, &om) in omegas.iter().enumerate() {
            let (x1, x1b, reports1) = sweep(&[om]);
            let block = oi * ncorner * n..(oi + 1) * ncorner * n;
            assert_eq!(&x[block.clone()], x1.as_slice(), "ω index {oi} diverged");
            assert_eq!(&x2[block], x1b.as_slice(), "ω index {oi} second phase");
            // Reports agree corner-for-corner (iterations, residuals).
            for c in 0..ncorner {
                assert_eq!(reports[oi * ncorner + c], reports1[c], "ω {oi} corner {c}");
            }
        }
    }

    /// Splitting the fused preconditioner sweeps across worker threads is
    /// an implementation detail: columns are solved independently, so any
    /// thread count produces bit-identical solutions and reports. The
    /// column count here exceeds [`FUSED_SPLIT_MIN_COLS`] so the split
    /// path really runs.
    #[test]
    fn fused_threaded_sweep_split_is_bit_identical_to_serial() {
        let grid = SimGrid::new(30, 26, 0.05, 6);
        let nominal = straight_wg(&grid, 3);
        let ncorner = 14; // × 2 ω × 2 cols = 56 columns ≥ FUSED_SPLIT_MIN_COLS
        let corners: Vec<Array2<f64>> = (1..=ncorner)
            .map(|k| nominal.map(|&e| if e > 1.0 { e + 0.012 * k as f64 } else { e }))
            .collect();
        let omegas = [omega(), omega() * 1.03];
        let n = grid.n();
        let cols_per_corner = 2;
        let total = ncorner * omegas.len() * cols_per_corner;
        assert!(total >= FUSED_SPLIT_MIN_COLS);
        let rhs: Vec<Complex64> = (0..n * total)
            .map(|k| c64((k as f64 * 0.011).sin(), (k as f64 * 0.017).cos()))
            .collect();
        let mut results = Vec::new();
        for threads in [1usize, 2, 4, 7] {
            let mut ws = SimWorkspace::new();
            ws.fused_batch_begin(
                grid,
                &omegas,
                &nominal,
                3,
                SolverStrategy::preconditioned_iterative(),
            )
            .unwrap();
            for oi in 0..omegas.len() {
                for eps in &corners {
                    ws.fused_batch_push(eps, oi);
                }
            }
            let mut x = vec![Complex64::ZERO; n * total];
            ws.fused_batch_solve(&rhs, &mut x, cols_per_corner, false, threads, None);
            results.push((threads, x, ws.batch_reports().to_vec()));
        }
        let (_, x_serial, reports_serial) = &results[0];
        assert!(reports_serial.iter().all(|r| r.converged));
        for (threads, x, reports) in &results[1..] {
            assert_eq!(x, x_serial, "threads={threads}");
            assert_eq!(reports, reports_serial, "threads={threads}");
        }
    }

    /// The definitive check: dF/dε from the adjoint method vs central
    /// finite differences of the full solve, for a modal-power objective,
    /// through the per-corner entry production runs take
    /// (`prepare_corner` + `solve_block`): direct, and iterative on a
    /// non-nominal corner — the path of the runner's worst-case corner.
    /// The finite differences use direct solves.
    #[test]
    fn adjoint_gradient_matches_finite_difference() {
        let grid = SimGrid::new(36, 30, 0.05, 8);
        let om = omega();
        let n = grid.n();
        let mut nominal = straight_wg(&grid, 3);
        // Slight perturbation so the problem is not perfectly uniform.
        nominal[(15, 18)] = 6.0;
        // The corner under test: a thermo-optic-style core shift.
        let eps = nominal.map(|&e| if e > 1.0 { e + 0.03 } else { e });
        let port_in = Port::new("in", Axis::X, 10, 8, 22);
        let port_out = Port::new("out", Axis::X, 26, 8, 22);
        let modes = port_in.solve_modes(&grid, &nominal, om, 1);
        let src = ModalSource::new(port_in, modes[0].clone(), Sign::Plus);
        let jz = src.current(&grid);
        let mon = ModalMonitor::new(&grid, &port_out, &modes[0], Sign::Plus);
        let objective = |eps_map: &Array2<f64>| mon.power(&direct_field(grid, eps_map, &jz));

        // Central differences at several cells (inside the "design
        // region").
        let h = 1e-5;
        let cells = [(18usize, 15usize), (17, 14), (19, 16), (16, 15)];
        let fd: Vec<f64> = cells
            .iter()
            .map(|&(ix, iy)| {
                let mut ep = eps.clone();
                ep[(iy, ix)] += h;
                let fp = objective(&ep);
                ep[(iy, ix)] -= 2.0 * h;
                let fm = objective(&ep);
                (fp - fm) / (2.0 * h)
            })
            .collect();

        let fd_scale = fd.iter().fold(0.0f64, |m, v| m.max(v.abs()));

        // Tolerance. Central differences: 2e-3 of the cell's own value
        // (O(h²) truncation) plus 1e-6 of the gradient scale (round-off,
        // and cells whose gradient nearly vanishes). An iterative solve
        // stops at a true relative residual ≤ `tol`, so its relative
        // field error is at most κ₂(A)·tol; the gradient −2Re(λ·sxy·E)·ω²
        // is bilinear in the forward field E and the adjoint λ, so to
        // first order it may move by 2·κ₂·tol of its scale. κ₂ of this
        // corner operator is ≈ 2.0e3 (power iterations on AᴴA and
        // (AᴴA)⁻¹: σ_max ≈ 2.95e4, 1/σ_min ≈ 6.8e-2).
        const KAPPA: f64 = 2.0e3;
        let ctx = CornerContext {
            nominal_eps: &nominal,
            epoch: 1,
            is_nominal: false,
            force_direct: false,
            terms: None,
        };
        for strategy in [
            SolverStrategy::Direct,
            SolverStrategy::preconditioned_iterative(),
        ] {
            let mut ws = SimWorkspace::new();
            ws.prepare_corner(grid, om, &eps, strategy, Some(&ctx))
                .unwrap();
            let mut field = vec![Complex64::ZERO; n];
            scale_source_into(&grid, ws.sfactors(), om, &jz, &mut field);
            ws.solve_block(&mut field, 1).unwrap();
            let mut lam = vec![Complex64::ZERO; n];
            mon.accumulate_power_grad(&field, 1.0, &mut lam);
            ws.solve_block(&mut lam, 1).unwrap();
            let report = ws.last_report();
            let krylov_rel = match strategy.iterative_params() {
                None => 0.0,
                Some((tol, _)) => {
                    assert!(
                        report.used_iterative && !report.fell_back,
                        "the iterative path must solve this corner: {report:?}"
                    );
                    2.0 * KAPPA * tol
                }
            };
            let mut grad = Array2::zeros(grid.ny, grid.nx);
            ws.grad_eps_accumulate(&field, &lam, &mut grad);
            for (&(ix, iy), &fd) in cells.iter().zip(&fd) {
                let ad = grad[(iy, ix)];
                assert!(
                    (fd - ad).abs() < 2e-3 * fd.abs() + (1e-6 + krylov_rel) * fd_scale,
                    "{strategy:?}: adjoint {ad} vs FD {fd} at ({ix},{iy})"
                );
            }
        }
    }
}
