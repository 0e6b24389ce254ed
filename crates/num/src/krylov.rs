//! Preconditioned multi-RHS BiCGSTAB over matrix-free linear operators.
//!
//! The variation-corner sweep of a robust FDFD iteration solves dozens of
//! linear systems whose operators differ from the *nominal* operator only
//! by small ε/temperature/etch perturbations. Factoring each corner with
//! the banded LU costs `O(n·b²)`; amortising **one** strong factorisation
//! across all nearby corners reduces every non-nominal solve to a handful
//! of `O(n·b)` triangular sweeps plus `O(n)` stencil applications. This
//! module provides that engine: a right-preconditioned BiCGSTAB that takes
//! any [`BandedLu`] as the preconditioner and any [`LinearOp`] as the
//! (matrix-free) system operator, advancing all right-hand sides in
//! lockstep with per-RHS convergence tracking.
//!
//! # Preconditioner contract
//!
//! The preconditioner `M` is applied as `M⁻¹v` through
//! [`BandedLu::solve_many`]. Right preconditioning solves `A M⁻¹ y = b` and
//! recovers `x = M⁻¹ y`, so **residuals are true residuals of the original
//! system** — the convergence test and the quality report both refer to
//! `‖b − A x‖ / ‖b‖` and are meaningful regardless of how strong `M` is.
//!
//! Any nonsingular factorisation of the same dimension is admissible; the
//! closer `M` is to `A`, the faster the iteration. With `M` the factored
//! nominal corner operator and `A` a mildly perturbed corner, convergence
//! typically takes 1–4 iterations; strongly perturbed corners (litho
//! dose excursions at large etch-projection β, worst-case EOLE fields) may
//! stagnate, which is what the per-RHS [`RhsStats`] and the aggregate
//! [`SolveQuality`] are for: callers inspect them and **fall back to a
//! direct factorisation** when `iterations` hits `max_iters` or the final
//! residual exceeds the configured tolerance (see
//! `boson_fdfd::sim::SimWorkspace`, which caches that decision per corner).
//!
//! There is one orientation, `A X = B`. The symmetrised FDFD operator is
//! complex-symmetric (`Aᵀ = A`), so adjoint systems are solved exactly
//! like forward ones.
//!
//! # Workspace contract
//!
//! All Krylov vectors live in a caller-owned [`KrylovWorkspace`] that is
//! grown once and reused; after warm-up a solve performs **zero heap
//! allocations**, matching the workspace discipline of the rest of the
//! solver stack.
//!
//! # Examples
//!
//! ```
//! use boson_num::banded::{BandedLu, BandedMatrix};
//! use boson_num::krylov::{bicgstab_precond_many, IterativeOptions, KrylovWorkspace};
//! use boson_num::{c64, Complex64};
//!
//! // Nominal operator: a shifted 1-D Laplacian. Perturbed corner: the
//! // same operator with a few diagonal entries nudged.
//! let n = 32;
//! let build = |bump: f64| {
//!     let mut a = BandedMatrix::new(n, 1, 1);
//!     for i in 0..n {
//!         a.set(i, i, c64(2.5 + if i % 7 == 0 { bump } else { 0.0 }, 0.4));
//!         if i > 0 { a.set(i, i - 1, c64(-1.0, 0.0)); }
//!         if i + 1 < n { a.set(i, i + 1, c64(-1.0, 0.0)); }
//!     }
//!     a
//! };
//! let mut nominal = build(0.0).factor().unwrap();
//! let corner = build(0.05);
//! let b = vec![Complex64::ONE; n];
//! let mut x = vec![Complex64::ZERO; n];
//! let mut ws = KrylovWorkspace::new();
//! let q = bicgstab_precond_many(
//!     &corner, &mut nominal, &b, &mut x, 1, &IterativeOptions::default(), &mut ws,
//! );
//! assert!(q.converged && q.max_iterations <= 4);
//! ```

use crate::banded::{BandedLu, BandedMatrix};
use crate::complex::{axpy, axpy_neg};
use crate::pool::{self, DisjointSlots};
use crate::Complex64;

/// A square linear operator applied matrix-free.
///
/// Implemented by [`BandedMatrix`] (band-storage sweep) and by stencil
/// caches higher in the stack that apply the FDFD operator in `O(5n)`.
pub trait LinearOp {
    /// Operator dimension.
    fn dim(&self) -> usize;
    /// `y = A x` (overwrites `y`).
    fn apply(&self, x: &[Complex64], y: &mut [Complex64]);
}

impl LinearOp for BandedMatrix {
    fn dim(&self) -> usize {
        self.n()
    }

    fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
        self.matvec_into(x, y);
    }
}

/// A *family* of equally-sized linear operators, one per right-hand-side
/// column — the shape of a variation-corner sweep, where every corner
/// shares the stencil couplings but carries its own diagonal.
///
/// Every [`LinearOp`] is a `ColumnOp` that ignores the column index, so
/// single-operator solves and corner-batched solves share one driver.
pub trait ColumnOp {
    /// Operator dimension (identical for every column).
    fn dim(&self) -> usize;
    /// `y = A_col x` (overwrites `y`).
    fn apply_col(&self, col: usize, x: &[Complex64], y: &mut [Complex64]);
}

impl<T: LinearOp> ColumnOp for T {
    fn dim(&self) -> usize {
        LinearOp::dim(self)
    }

    fn apply_col(&self, _col: usize, x: &[Complex64], y: &mut [Complex64]) {
        self.apply(x, y);
    }
}

/// A preconditioner application engine: `b ← M⁻¹ b` over a column-major
/// block.
///
/// Takes `&mut self` so implementations may keep conversion scratch
/// (for a [`crate::banded::BandedLuF32`] sweep) without interior
/// mutability.
pub trait Precondition {
    /// Preconditioner dimension.
    fn dim(&self) -> usize;
    /// Applies `M⁻¹` to `nrhs` column-major right-hand sides in place.
    fn solve_block(&mut self, b: &mut [Complex64], nrhs: usize);
}

impl Precondition for BandedLu {
    fn dim(&self) -> usize {
        self.n()
    }

    fn solve_block(&mut self, b: &mut [Complex64], nrhs: usize) {
        self.solve_many(b, nrhs);
    }
}

/// A *family* of preconditioner engines, one per right-hand-side column —
/// the preconditioning counterpart of [`ColumnOp`].
///
/// The packed-block sweeps of the lockstep iteration hand the family the
/// still-active columns (`cols[i]` is the *global* column index occupying
/// packed slot `i` of `b`), so an implementation can route each column to
/// its own factorisation — e.g. a fused (corner × ω) sweep preconditioning
/// every column with its own wavelength's nominal factor. Column results
/// must not depend on what other columns share the block (every engine in
/// this module satisfies that: triangular sweeps treat columns
/// independently), which is what keeps fused and per-family-member batches
/// bit-identical.
///
/// Every single-engine [`Precondition`] is a `PrecondFamily` that ignores
/// `cols` and sweeps the whole packed block at once, so existing callers
/// (and the single-ω solve paths) compile and behave unchanged.
pub trait PrecondFamily {
    /// Preconditioner dimension (identical for every column).
    fn dim(&self) -> usize;
    /// Applies each column's `M⁻¹` to the packed column-major block `b`
    /// (`b.len() == dim()·cols.len()`); packed slot `i` holds global
    /// column `cols[i]`.
    fn solve_packed(&mut self, b: &mut [Complex64], cols: &[usize]);
}

impl<P: Precondition> PrecondFamily for P {
    fn dim(&self) -> usize {
        Precondition::dim(self)
    }

    fn solve_packed(&mut self, b: &mut [Complex64], cols: &[usize]) {
        self.solve_block(b, cols.len());
    }
}

/// Convergence controls for the preconditioned iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterativeOptions {
    /// Relative residual `‖b − A x‖/‖b‖` at which a RHS is converged.
    pub tol: f64,
    /// Iteration budget per solve (each iteration costs two preconditioner
    /// sweeps and two operator applications).
    pub max_iters: usize,
    /// When `true`, `x` holds an initial guess on entry (e.g. the nominal
    /// corner's solution) and the iteration starts from its residual; when
    /// `false`, `x` is zeroed and the iteration starts from `r = b`.
    pub use_initial_guess: bool,
    /// Lane budget for the per-column vector stages (residual updates,
    /// operator applies, dot products), dispatched on the process-wide
    /// [`crate::pool`]. Every stage keeps columns data-disjoint and each
    /// column's arithmetic serial, so any value — including `1` — is
    /// **bit-identical**; this only trades latency for cores. Small
    /// blocks (`nrhs · n` below [`PAR_MIN_ELEMS`]) always run serially.
    pub threads: usize,
}

impl Default for IterativeOptions {
    fn default() -> Self {
        Self {
            tol: 1e-6,
            max_iters: 24,
            use_initial_guess: false,
            threads: 1,
        }
    }
}

/// Minimum total block size (`nrhs · n` elements) before the per-column
/// Krylov stages are worth dispatching on the pool; below this the
/// condvar hand-off costs more than the arithmetic it parallelises.
pub const PAR_MIN_ELEMS: usize = 1 << 15;

/// Convergence record of one right-hand side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RhsStats {
    /// BiCGSTAB iterations spent on this RHS.
    pub iterations: usize,
    /// Final **true** relative residual `‖b − A x‖/‖b‖` (recomputed from
    /// the returned solution, not the recursion residual).
    pub residual: f64,
    /// Whether the recursion residual reached `tol` within `max_iters`.
    pub converged: bool,
}

/// Aggregate quality report of a multi-RHS solve — the signal the adaptive
/// direct-fallback policy keys on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveQuality {
    /// All right-hand sides converged.
    pub converged: bool,
    /// Worst per-RHS iteration count.
    pub max_iterations: usize,
    /// Worst per-RHS final true relative residual.
    pub max_residual: f64,
}

/// Per-column iteration state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ColState {
    Active,
    Converged,
    /// A BiCGSTAB scalar degenerated (ρ, ⟨r̂,v⟩ or ⟨t,t⟩ ≈ 0) or went
    /// non-finite (NaN/Inf scalar, residual norm, or right-hand side);
    /// the column is frozen and reported unconverged, which drives the
    /// caller's budget-miss → direct-fallback path.
    Broken,
}

/// Reusable buffers for [`bicgstab_precond_many`]: eight `n × nrhs` Krylov blocks
/// plus per-column scalar state. Grown once, then allocation-free.
#[derive(Debug, Default)]
pub struct KrylovWorkspace {
    r: Vec<Complex64>,
    r_hat: Vec<Complex64>,
    p: Vec<Complex64>,
    p_hat: Vec<Complex64>,
    v: Vec<Complex64>,
    s: Vec<Complex64>,
    s_hat: Vec<Complex64>,
    t: Vec<Complex64>,
    bnorm: Vec<f64>,
    rho: Vec<Complex64>,
    alpha: Vec<Complex64>,
    omega: Vec<Complex64>,
    state: Vec<ColState>,
    iters: Vec<usize>,
    /// Columns still iterating, rebuilt each half-iteration; the
    /// preconditioner sweeps touch **only these**, packed contiguously.
    active: Vec<usize>,
    /// Columns still active at the ŝ-stage sweep (a subset of `active`
    /// after the s-stage convergence checks), in packed order.
    s_active: Vec<usize>,
    /// `slot_of[col]` = this iteration's packed slot of `col` in `p_hat`.
    slot_of: Vec<usize>,
    stats: Vec<RhsStats>,
}

impl KrylovWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-RHS convergence records of the most recent solve.
    pub fn stats(&self) -> &[RhsStats] {
        &self.stats
    }

    fn resize(&mut self, n: usize, nrhs: usize) {
        let len = n * nrhs;
        // Only `p` and `v` are read before being written (the first
        // `p = r + β(p − ω v)` update); the other six blocks are always
        // fully overwritten per column before use, so they only need
        // sizing, not zeroing — this path is memory-bound enough that the
        // saved memsets matter.
        for buf in [&mut self.p, &mut self.v] {
            // clear + resize zero-fills every retained element.
            buf.clear();
            buf.resize(len, Complex64::ZERO);
        }
        for buf in [
            &mut self.r,
            &mut self.r_hat,
            &mut self.p_hat,
            &mut self.s,
            &mut self.s_hat,
            &mut self.t,
        ] {
            if buf.len() != len {
                buf.clear();
                buf.resize(len, Complex64::ZERO);
            }
        }
        self.bnorm.clear();
        self.bnorm.resize(nrhs, 0.0);
        for buf in [&mut self.rho, &mut self.alpha, &mut self.omega] {
            buf.clear();
            buf.resize(nrhs, Complex64::ONE);
        }
        self.state.clear();
        self.state.resize(nrhs, ColState::Active);
        self.iters.clear();
        self.iters.resize(nrhs, 0);
        self.active.clear();
        self.active.reserve(nrhs);
        self.s_active.clear();
        self.s_active.reserve(nrhs);
        self.slot_of.clear();
        self.slot_of.resize(nrhs, usize::MAX);
        self.stats.clear();
        self.stats.resize(
            nrhs,
            RhsStats {
                iterations: 0,
                residual: 0.0,
                converged: false,
            },
        );
    }
}

/// Hermitian inner product `Σ conj(a_i)·b_i` (the BiCGSTAB shadow-residual
/// pairing).
fn dot_conj(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    let mut re = 0.0;
    let mut im = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        re += x.re * y.re + x.im * y.im;
        im += x.re * y.im - x.im * y.re;
    }
    Complex64::new(re, im)
}

fn norm(a: &[Complex64]) -> f64 {
    a.iter().map(|x| x.norm_sqr()).sum::<f64>().sqrt()
}

/// Threshold below which a BiCGSTAB scalar counts as a breakdown.
const BREAKDOWN: f64 = 1e-300;

/// `true` when a BiCGSTAB scalar is unusable: degenerate magnitude *or*
/// non-finite. The magnitude test alone misses NaN/Inf (`NaN.abs() < x`
/// is `false`), which would let a poisoned column keep sweeping for the
/// whole budget; any non-finite scalar is an immediate per-column
/// breakdown instead, so the caller's budget-miss → direct-fallback
/// machinery fires at once.
fn scalar_breaks(z: Complex64) -> bool {
    !z.is_finite() || z.abs() < BREAKDOWN
}

/// Collects the still-active columns into `ws.active` and records each
/// one's packed slot in `ws.slot_of`.
fn collect_active(ws: &mut KrylovWorkspace, nrhs: usize) {
    ws.active.clear();
    for c in 0..nrhs {
        if ws.state[c] == ColState::Active {
            ws.slot_of[c] = ws.active.len();
            ws.active.push(c);
        }
    }
}

/// Solves `A X = B` for `nrhs` column-major right-hand sides with
/// right-preconditioned BiCGSTAB, `M⁻¹` applied through
/// [`PrecondFamily::solve_packed`] (a plain [`Precondition`] engine — the
/// common case — preconditions every column with the same factor via the
/// blanket impl; a true family routes each packed column to its own
/// engine, e.g. per-wavelength nominal factors in a fused (corner × ω)
/// sweep).
///
/// `b` holds the right-hand sides (read-only); the solutions land in `x`
/// (fully overwritten unless [`IterativeOptions::use_initial_guess`]).
/// All columns advance in lockstep — each of the two preconditioner
/// applications per iteration sweeps the factors once for the packed
/// block of **still-active** columns — and columns that converge (or
/// break down) are frozen while the rest continue, costing nothing
/// further. Returns the aggregate [`SolveQuality`]; per-RHS details stay
/// in [`KrylovWorkspace::stats`].
///
/// # Examples
///
/// A single-column solve of a perturbed operator, preconditioned by the
/// unperturbed factorisation (the nominal-corner idiom in miniature):
///
/// ```
/// use boson_num::banded::BandedMatrix;
/// use boson_num::krylov::{bicgstab_precond_many, IterativeOptions, KrylovWorkspace};
/// use boson_num::{c64, Complex64};
///
/// let n = 24;
/// let build = |shift: f64| {
///     let mut a = BandedMatrix::new(n, 1, 1);
///     for i in 0..n {
///         a.set(i, i, c64(3.0 + shift, 0.3));
///         if i > 0 {
///             a.set(i, i - 1, c64(-1.0, 0.0));
///             a.set(i - 1, i, c64(-1.0, 0.0));
///         }
///     }
///     a
/// };
/// let mut nominal = build(0.0).factor()?; // the preconditioner
/// let corner = build(0.02); // the (perturbed) system, applied matrix-free
/// let b = vec![Complex64::ONE; n];
/// let mut x = vec![Complex64::ZERO; n];
/// let mut ws = KrylovWorkspace::new();
/// let q = bicgstab_precond_many(
///     &corner,
///     &mut nominal,
///     &b,
///     &mut x,
///     1, // a single right-hand side
///     &IterativeOptions::default(),
///     &mut ws,
/// );
/// assert!(q.converged);
/// // Residuals are true residuals of the *original* system.
/// let ax = corner.matvec(&x);
/// let bnorm: f64 = b.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
/// let res: f64 = ax.iter().zip(&b).map(|(a, b)| (*a - *b).norm_sqr()).sum::<f64>().sqrt();
/// assert!(res / bnorm < 1e-6);
/// # Ok::<(), boson_num::banded::SingularMatrixError>(())
/// ```
///
/// # Panics
///
/// Panics if `op`, `precond`, `b` and `x` disagree on dimensions.
pub fn bicgstab_precond_many<Op: ColumnOp + Sync, P: PrecondFamily>(
    op: &Op,
    precond: &mut P,
    b: &[Complex64],
    x: &mut [Complex64],
    nrhs: usize,
    opts: &IterativeOptions,
    ws: &mut KrylovWorkspace,
) -> SolveQuality {
    let n = op.dim();
    assert_eq!(precond.dim(), n, "preconditioner dimension mismatch");
    assert_eq!(b.len(), n * nrhs, "rhs block dimension mismatch");
    assert_eq!(x.len(), n * nrhs, "solution block dimension mismatch");
    ws.resize(n, nrhs);

    // Lane budget for the per-column stages below. Columns are
    // data-disjoint and each column's arithmetic is serial, so the lane
    // count never changes results (the pool's determinism contract);
    // small blocks stay serial — the dispatch hand-off would dominate.
    let lanes = if opts.threads > 1 && nrhs >= 2 && n * nrhs >= PAR_MIN_ELEMS {
        opts.threads
    } else {
        1
    };

    // Initial residual: r = b (cold start) or r = b − A x₀ (warm start),
    // each column an independent part.
    {
        let xs = DisjointSlots::new(&mut *x);
        let rs = DisjointSlots::new(&mut ws.r);
        let r_hats = DisjointSlots::new(&mut ws.r_hat);
        let ts = DisjointSlots::new(&mut ws.t);
        let bnorms = DisjointSlots::new(&mut ws.bnorm);
        let states = DisjointSlots::new(&mut ws.state);
        pool::global().run(nrhs, lanes, &|_lane, c| {
            // SAFETY: part `c` touches only the column range `c*n..(c+1)*n`
            // of every block and scalar slot `c`; the pool runs each part
            // exactly once, so no two lanes ever address the same element.
            unsafe {
                let x = xs.slice(c * n, n);
                let r = rs.slice(c * n, n);
                let t = ts.slice(c * n, n);
                let state = states.get(c);
                let bnorm = bnorms.get(c);
                let bcol = &b[c * n..(c + 1) * n];
                *bnorm = norm(bcol);
                if *bnorm == 0.0 {
                    // Zero RHS: x = 0 is exact (even against a nonzero
                    // guess).
                    x.fill(Complex64::ZERO);
                    *state = ColState::Converged;
                    return;
                }
                if !bnorm.is_finite() {
                    // A non-finite RHS can never satisfy a residual test —
                    // break the column immediately (reported unconverged in
                    // zero iterations) instead of sweeping the whole budget
                    // on it.
                    x.fill(Complex64::ZERO);
                    *state = ColState::Broken;
                    return;
                }
                if opts.use_initial_guess {
                    op.apply_col(c, x, t);
                    r.copy_from_slice(bcol);
                    axpy_neg(Complex64::ONE, t, r);
                } else {
                    x.fill(Complex64::ZERO);
                    r.copy_from_slice(bcol);
                }
                let rnorm = norm(r);
                if !rnorm.is_finite() {
                    // Poisoned warm start (or an overflowing operator
                    // apply).
                    *state = ColState::Broken;
                    return;
                }
                if rnorm <= opts.tol * *bnorm {
                    *state = ColState::Converged;
                    return;
                }
                r_hats.slice(c * n, n).copy_from_slice(r);
            }
        });
    }

    for it in 1..=opts.max_iters {
        // p = r + β (p − ω v), per active column.
        collect_active(ws, nrhs);
        if ws.active.is_empty() {
            break;
        }
        {
            let active = &ws.active;
            let (r, r_hat, v) = (&ws.r, &ws.r_hat, &ws.v);
            let (alpha, omega) = (&ws.alpha, &ws.omega);
            let ps = DisjointSlots::new(&mut ws.p);
            let rhos = DisjointSlots::new(&mut ws.rho);
            let states = DisjointSlots::new(&mut ws.state);
            let iterss = DisjointSlots::new(&mut ws.iters);
            pool::global().run(active.len(), lanes, &|_lane, idx| {
                let c = active[idx];
                let col = c * n..(c + 1) * n;
                // SAFETY: part `idx` owns column `c = active[idx]`
                // exclusively — `active` holds distinct column indices
                // and each part runs exactly once, so writes to column
                // `c`'s slices and scalar slots never alias.
                unsafe {
                    *iterss.get(c) = it;
                    let rho_new = dot_conj(&r_hat[col.clone()], &r[col.clone()]);
                    if scalar_breaks(rho_new) {
                        *states.get(c) = ColState::Broken;
                        return;
                    }
                    let rho = rhos.get(c);
                    let beta = (rho_new / *rho) * (alpha[c] / omega[c]);
                    if !beta.is_finite() {
                        *states.get(c) = ColState::Broken;
                        return;
                    }
                    *rho = rho_new;
                    let bo = beta * omega[c];
                    let p = ps.slice(c * n, n);
                    for ((pi, &ri), &vi) in p.iter_mut().zip(&r[col.clone()]).zip(&v[col]) {
                        *pi = ri + beta * *pi - bo * vi;
                    }
                }
            });
        }
        // p̂ = M⁻¹ p — one family sweep over the packed active columns
        // (each column routed to its own engine).
        collect_active(ws, nrhs);
        if ws.active.is_empty() {
            break;
        }
        for (slot, &c) in ws.active.iter().enumerate() {
            ws.p_hat[slot * n..(slot + 1) * n].copy_from_slice(&ws.p[c * n..(c + 1) * n]);
        }
        let nactive = ws.active.len();
        {
            let (p_hat, active) = (&mut ws.p_hat, &ws.active);
            precond.solve_packed(&mut p_hat[..nactive * n], active);
        }
        {
            let active = &ws.active;
            let (r, r_hat, p_hat) = (&ws.r, &ws.r_hat, &ws.p_hat);
            let (rho, bnorm) = (&ws.rho, &ws.bnorm);
            let vs = DisjointSlots::new(&mut ws.v);
            let ss = DisjointSlots::new(&mut ws.s);
            let alphas = DisjointSlots::new(&mut ws.alpha);
            let states = DisjointSlots::new(&mut ws.state);
            let xs = DisjointSlots::new(&mut *x);
            pool::global().run(nactive, lanes, &|_lane, idx| {
                let c = active[idx];
                let slot = idx * n..(idx + 1) * n;
                let col = c * n..(c + 1) * n;
                // SAFETY: part `idx` owns column `c = active[idx]` and
                // packed slot `idx` exclusively (`active` entries are
                // distinct, each part runs exactly once), so the v/s/x
                // column writes and scalar slots never alias.
                unsafe {
                    let v = vs.slice(c * n, n);
                    op.apply_col(c, &p_hat[slot.clone()], v);
                    let denom = dot_conj(&r_hat[col.clone()], v);
                    if scalar_breaks(denom) {
                        *states.get(c) = ColState::Broken;
                        return;
                    }
                    let alpha = rho[c] / denom;
                    if !alpha.is_finite() {
                        *states.get(c) = ColState::Broken;
                        return;
                    }
                    *alphas.get(c) = alpha;
                    // s = r − α v.
                    let s = ss.slice(c * n, n);
                    s.copy_from_slice(&r[col]);
                    axpy_neg(alpha, v, s);
                    let snorm = norm(s);
                    if !snorm.is_finite() {
                        *states.get(c) = ColState::Broken;
                        return;
                    }
                    if snorm <= opts.tol * bnorm[c] {
                        axpy(alpha, &p_hat[slot], xs.slice(c * n, n));
                        *states.get(c) = ColState::Converged;
                    }
                }
            });
        }
        // ŝ = M⁻¹ s — second packed sweep over the columns still active
        // after the s-stage convergence checks (`ws.slot_of` keeps each
        // column's p̂ slot from the first half).
        ws.s_active.clear();
        for c in 0..nrhs {
            if ws.state[c] == ColState::Active {
                let s_slot = ws.s_active.len();
                ws.s_hat[s_slot * n..(s_slot + 1) * n].copy_from_slice(&ws.s[c * n..(c + 1) * n]);
                ws.s_active.push(c);
            }
        }
        let s_slots = ws.s_active.len();
        if s_slots == 0 {
            continue;
        }
        {
            let (s_hat, s_active) = (&mut ws.s_hat, &ws.s_active);
            precond.solve_packed(&mut s_hat[..s_slots * n], s_active);
        }
        {
            // `s_active` holds exactly the still-active columns in
            // increasing order (nothing touched `state` since the gather),
            // so enumerating it reproduces the running-slot walk of the
            // serial generation bit for bit.
            let s_active = &ws.s_active;
            let slot_of = &ws.slot_of;
            let (s, s_hat, p_hat) = (&ws.s, &ws.s_hat, &ws.p_hat);
            let (alpha, bnorm) = (&ws.alpha, &ws.bnorm);
            let ts = DisjointSlots::new(&mut ws.t);
            let rs = DisjointSlots::new(&mut ws.r);
            let omegas = DisjointSlots::new(&mut ws.omega);
            let states = DisjointSlots::new(&mut ws.state);
            let xs = DisjointSlots::new(&mut *x);
            pool::global().run(s_slots, lanes, &|_lane, s_slot| {
                let c = s_active[s_slot];
                let sh = s_slot * n..(s_slot + 1) * n;
                let col = c * n..(c + 1) * n;
                let p_slot = slot_of[c] * n..(slot_of[c] + 1) * n;
                // SAFETY: part `s_slot` owns column `c = s_active[s_slot]`
                // and ŝ slot `s_slot` exclusively (`s_active` entries are
                // distinct, each part runs exactly once), so the t/r/x
                // column writes and scalar slots never alias.
                unsafe {
                    let t = ts.slice(c * n, n);
                    op.apply_col(c, &s_hat[sh.clone()], t);
                    let tt = dot_conj(t, t);
                    if scalar_breaks(tt) {
                        *states.get(c) = ColState::Broken;
                        return;
                    }
                    let omega = dot_conj(t, &s[col.clone()]) / tt;
                    if !omega.is_finite() {
                        // Freeze before the x/r updates so a NaN ω cannot
                        // poison the partial solution already accumulated.
                        *states.get(c) = ColState::Broken;
                        return;
                    }
                    let xcol = xs.slice(c * n, n);
                    axpy(alpha[c], &p_hat[p_slot], xcol);
                    axpy(omega, &s_hat[sh], xcol);
                    // r = s − ω t.
                    let r = rs.slice(c * n, n);
                    r.copy_from_slice(&s[col]);
                    axpy_neg(omega, t, r);
                    let rnorm = norm(r);
                    let state = states.get(c);
                    if !rnorm.is_finite() {
                        *state = ColState::Broken;
                    } else if rnorm <= opts.tol * bnorm[c] {
                        *state = ColState::Converged;
                    } else if omega.abs() < BREAKDOWN {
                        *state = ColState::Broken;
                    }
                    *omegas.get(c) = omega;
                }
            });
        }
    }

    // Quality report: the *true* residual of every returned column
    // (computed per column in parallel, reduced serially).
    {
        let (bnorm, state, iters) = (&ws.bnorm, &ws.state, &ws.iters);
        let x = &*x;
        let ts = DisjointSlots::new(&mut ws.t);
        let rs = DisjointSlots::new(&mut ws.r);
        let statss = DisjointSlots::new(&mut ws.stats);
        pool::global().run(nrhs, lanes, &|_lane, c| {
            let col = c * n..(c + 1) * n;
            // SAFETY: part `c` owns the t/r column ranges `c*n..(c+1)*n`
            // and stats slot `c` exclusively; parts run exactly once, so
            // no lane ever touches another part's column.
            unsafe {
                let residual = if bnorm[c] == 0.0 {
                    0.0
                } else {
                    let t = ts.slice(c * n, n);
                    op.apply_col(c, &x[col.clone()], t);
                    let r = rs.slice(c * n, n);
                    r.copy_from_slice(&b[col]);
                    axpy_neg(Complex64::ONE, t, r);
                    let rel = norm(r) / bnorm[c];
                    // A broken column (non-finite RHS / overflowed
                    // recursion) can yield a NaN true residual; report it
                    // as +∞ so aggregate maxima stay ordered and
                    // meaningful.
                    if rel.is_finite() {
                        rel
                    } else {
                        f64::INFINITY
                    }
                };
                *statss.get(c) = RhsStats {
                    iterations: iters[c],
                    residual,
                    converged: state[c] == ColState::Converged,
                };
            }
        });
    }
    let mut quality = SolveQuality {
        converged: true,
        max_iterations: 0,
        max_residual: 0.0,
    };
    for st in &ws.stats {
        quality.converged &= st.converged;
        quality.max_iterations = quality.max_iterations.max(st.iterations);
        quality.max_residual = quality.max_residual.max(st.residual);
    }
    quality
}

/// Relative threshold under which a harvested direction is considered
/// already captured by the stored subspace and skipped.
const RECYCLE_DEPENDENT_TOL: f64 = 1e-8;

/// Pivot threshold for the tiny Galerkin system `(Uᴴ A U) y = Uᴴ r`;
/// below this the projection is skipped (never committed half-solved).
const RECYCLE_PIVOT_TOL: f64 = 1e-280;

/// A per-column **recycled deflation space** in the GCROT/recycled-GMRES
/// tradition, adapted to the cross-iteration structure of the robust
/// loop: consecutive optimiser epochs solve nearly-identical systems, so
/// the correction directions BiCGSTAB discovered last epoch are excellent
/// coarse directions for this epoch.
///
/// The store keeps up to `W` (≈ 4–8) **orthonormalised correction
/// directions** harvested from converged solves ([`RecycleSpace::harvest`]
/// takes `x_final − x₀`, the part of the solution the warm start did
/// *not* already contain), plus the column's **full previous solution**
/// ([`RecycleSpace::remember_solution`]). Before the next solve of the
/// same column, [`RecycleSpace::try_apply`] improves the initial guess in
/// two stages: the remembered solution replaces the caller's guess when
/// its true residual is strictly smaller (one optimiser step of design
/// drift leaves it far closer than any shared warm start), then the
/// residual is Galerkin-projected onto the recycled space:
///
/// ```text
/// x₀ += U (Uᴴ A U)⁻¹ Uᴴ (b − A x₀)
/// ```
///
/// applied matrix-free through the same [`ColumnOp`] seam the lockstep
/// iteration uses.
///
/// # Safety net: a recycled space can only skip, never worsen
///
/// * **Non-finite hardening** — harvested directions carrying NaN/Inf are
///   rejected; a non-finite residual, Galerkin solve, or projected
///   candidate aborts the application untouched.
/// * **Never-worsen commit rule** — the projected residual
///   `r − (A U) y` is evaluated explicitly (the `A U` block is already in
///   hand) and the update is committed only if it is finite and
///   **strictly smaller** than the incoming residual.
/// * **Invalidate-on-ε-epoch-jump** — each harvest stamps the store with
///   its optimiser epoch; an application whose epoch is more than
///   [`RecycleSpace::max_age`] ahead of the stamp (the design has moved
///   too far for the directions to be trusted) clears the store and
///   skips. Dormant subspace-scheduler columns therefore keep
///   stale-but-monitored state: the store survives dormancy, and the
///   epoch rule decides at re-entry whether it is still usable.
///
/// All buffers are owned and grown once ([`RecycleSpace::ensure_dim`]);
/// steady-state harvest/apply cycles perform no heap allocation.
#[derive(Debug, Clone)]
pub struct RecycleSpace {
    /// Operator dimension the buffers are sized for.
    n: usize,
    /// Maximum number of stored directions (`W`).
    capacity: usize,
    /// Currently stored directions.
    count: usize,
    /// Ring cursor: next slot to overwrite once full.
    next: usize,
    /// Largest allowed epoch jump between harvest and application.
    max_age: u64,
    /// Epoch of the most recent harvest.
    epoch: Option<u64>,
    /// `n × capacity` column-major orthonormal directions.
    u: Vec<Complex64>,
    /// Scratch: `A·U` (same layout as `u`).
    au: Vec<Complex64>,
    /// Scratch: residual `b − A x₀`.
    r: Vec<Complex64>,
    /// Scratch: residual of the remembered solution.
    r2: Vec<Complex64>,
    /// Scratch: `capacity × capacity` Galerkin matrix (column-major).
    g: Vec<Complex64>,
    /// Scratch: Galerkin right-hand side / solution.
    y: Vec<Complex64>,
    /// This column's full solution from the last remembered epoch.
    x_prev: Vec<Complex64>,
    /// Epoch [`RecycleSpace::remember_solution`] last stamped.
    x_prev_epoch: Option<u64>,
}

impl RecycleSpace {
    /// An empty space storing at most `capacity` directions, invalidated
    /// when applied more than one epoch after its last harvest.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "recycle capacity must be positive");
        Self {
            n: 0,
            capacity,
            count: 0,
            next: 0,
            max_age: 1,
            epoch: None,
            u: Vec::new(),
            au: Vec::new(),
            r: Vec::new(),
            r2: Vec::new(),
            g: Vec::new(),
            y: Vec::new(),
            x_prev: Vec::new(),
            x_prev_epoch: None,
        }
    }

    /// Sets the largest allowed harvest→apply epoch jump (default 1: the
    /// immediately following optimiser iteration, or a same-epoch
    /// re-solve).
    pub fn set_max_age(&mut self, max_age: u64) {
        self.max_age = max_age;
    }

    /// Largest allowed harvest→apply epoch jump.
    pub fn max_age(&self) -> u64 {
        self.max_age
    }

    /// Number of directions currently stored.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when no directions are stored.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Maximum number of stored directions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops every stored direction and the remembered solution
    /// (buffers are kept).
    pub fn clear(&mut self) {
        self.count = 0;
        self.next = 0;
        self.epoch = None;
        self.x_prev_epoch = None;
    }

    /// Sizes the buffers for operator dimension `n`, clearing the store
    /// if the dimension changed. Allocation-free once sized.
    pub fn ensure_dim(&mut self, n: usize) {
        if self.n != n {
            self.n = n;
            self.clear();
            self.u.clear();
            self.u.resize(n * self.capacity, Complex64::ZERO);
            self.au.clear();
            self.au.resize(n * self.capacity, Complex64::ZERO);
            self.r.clear();
            self.r.resize(n, Complex64::ZERO);
            self.r2.clear();
            self.r2.resize(n, Complex64::ZERO);
            self.g.clear();
            self.g
                .resize(self.capacity * self.capacity, Complex64::ZERO);
            self.y.clear();
            self.y.resize(self.capacity, Complex64::ZERO);
            self.x_prev.clear();
            self.x_prev.resize(n, Complex64::ZERO);
        }
    }

    /// Remembers this column's full converged solution at optimiser
    /// `epoch`, so the next epoch's [`RecycleSpace::try_apply`] can start
    /// from it when its true residual beats the caller's guess.
    /// Consecutive optimiser epochs differ by one design step, so the
    /// column's own previous solution is usually the best start
    /// available — the shared warm start is a corner-distance away, not
    /// an epoch-distance. Non-finite solutions are rejected.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` disagrees with the dimension passed to
    /// [`RecycleSpace::ensure_dim`].
    pub fn remember_solution(&mut self, x: &[Complex64], epoch: u64) {
        assert_eq!(x.len(), self.n, "solution dimension mismatch");
        if !norm(x).is_finite() {
            return;
        }
        self.x_prev.copy_from_slice(x);
        self.x_prev_epoch = Some(epoch);
    }

    /// Harvests one correction direction `x_final − x₀` from a converged
    /// solve at optimiser `epoch`, orthonormalising it against the stored
    /// directions (modified Gram–Schmidt). Non-finite corrections are
    /// rejected; corrections already captured by the stored subspace
    /// (residual after orthogonalisation below `RECYCLE_DEPENDENT_TOL`
    /// relative to the input) are skipped. Once the store is full the
    /// oldest direction is overwritten (ring order — the surviving set
    /// stays orthonormal because the newcomer was orthogonalised against
    /// *all* stored directions). Returns `true` if a direction was
    /// stored.
    ///
    /// # Panics
    ///
    /// Panics if `correction.len()` disagrees with the dimension passed
    /// to [`RecycleSpace::ensure_dim`].
    pub fn harvest(&mut self, correction: &[Complex64], epoch: u64) -> bool {
        let n = self.n;
        assert_eq!(correction.len(), n, "correction dimension mismatch");
        let input_norm = norm(correction);
        if !input_norm.is_finite() {
            return false;
        }
        // Stale stores are not worth orthogonalising against: a harvest
        // after an invalidating jump replaces the store outright.
        if let Some(stamp) = self.epoch {
            if epoch < stamp || epoch - stamp > self.max_age {
                self.clear();
            }
        }
        if input_norm == 0.0 {
            // Nothing new to store, but the converged solve behind this
            // harvest confirms the stored directions still describe the
            // current operator family — advance the stamp so the store
            // survives to the next epoch (a column that converges at its
            // recycled starting point must not lose the very space that
            // got it there).
            if self.count > 0 {
                self.epoch = Some(epoch);
            }
            return false;
        }
        let slot = if self.count < self.capacity {
            self.count
        } else {
            self.next
        };
        // Copy into the candidate slot, then orthogonalise in place
        // against every *other* stored column.
        let (head, tail) = self.u.split_at_mut(slot * n);
        let (cand, rest) = tail.split_at_mut(n);
        cand.copy_from_slice(correction);
        for (k, col) in head.chunks_exact(n).chain(rest.chunks_exact(n)).enumerate() {
            let k = if k < slot { k } else { k + 1 };
            if k >= self.count {
                break;
            }
            let proj = dot_conj(col, cand);
            axpy_neg(proj, col, cand);
        }
        let res_norm = norm(cand);
        if !res_norm.is_finite() || res_norm <= RECYCLE_DEPENDENT_TOL * input_norm {
            // Already captured (or poisoned by cancellation): leave the
            // store as-is. The stamp still advances — the *solve* at this
            // epoch confirmed the stored directions describe the current
            // operator family.
            self.epoch = Some(epoch);
            return false;
        }
        let inv = 1.0 / res_norm;
        for v in cand.iter_mut() {
            *v *= Complex64::new(inv, 0.0);
        }
        if self.count < self.capacity {
            self.count += 1;
        } else {
            self.next = (self.next + 1) % self.capacity;
        }
        self.epoch = Some(epoch);
        true
    }

    /// Improves the initial guess `x` for `A x = b` in two stages,
    /// applying the operator matrix-free
    /// through `op`'s column `col`:
    ///
    /// 1. **Start substitution** — if a solution remembered by
    ///    [`RecycleSpace::remember_solution`] is within the epoch window
    ///    and its true residual is strictly smaller than the caller's
    ///    guess, the guess is replaced by it (one extra operator apply).
    /// 2. **Galerkin projection** —
    ///    `x += U (Uᴴ A U)⁻¹ Uᴴ (b − A x)` over the stored directions.
    ///
    /// Returns `true` only when `x` was improved by at least one stage;
    /// each stage commits only if every quantity stays finite **and**
    /// the residual strictly shrinks, so a recycled start can skip but
    /// never worsen. An epoch more than [`RecycleSpace::max_age`] past
    /// the last harvest clears the store first
    /// (invalidate-on-ε-epoch-jump).
    ///
    /// # Panics
    ///
    /// Panics if `b`/`x` disagree with the dimension passed to
    /// [`RecycleSpace::ensure_dim`].
    pub fn try_apply<Op: ColumnOp>(
        &mut self,
        op: &Op,
        col: usize,
        b: &[Complex64],
        x: &mut [Complex64],
        epoch: u64,
    ) -> bool {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs dimension mismatch");
        assert_eq!(x.len(), n, "solution dimension mismatch");
        // The remembered solution shares the invalidate-on-epoch-jump
        // rule with the direction store.
        let prev_ok = match self.x_prev_epoch {
            Some(stamp) if epoch >= stamp && epoch - stamp <= self.max_age => true,
            Some(_) => {
                self.x_prev_epoch = None;
                false
            }
            None => false,
        };
        if self.count > 0 {
            match self.epoch {
                Some(stamp) if epoch >= stamp && epoch - stamp <= self.max_age => {}
                _ => {
                    // The design has jumped too far (or backwards — a
                    // reset): the stored directions describe a different
                    // operator family. Drop them rather than risk a
                    // misleading projection.
                    self.clear();
                }
            }
        }
        if self.count == 0 && !prev_ok {
            return false;
        }
        let apply = |v: &[Complex64], out: &mut [Complex64]| op.apply_col(col, v, out);
        // r = b − A x₀.
        apply(x, &mut self.r);
        for (ri, &bi) in self.r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        let mut rnorm = norm(&self.r);
        if !rnorm.is_finite() || rnorm == 0.0 {
            return false;
        }
        // Stage 1: start from this column's own previous solution when
        // its true residual beats the caller's guess.
        let mut committed = false;
        if prev_ok {
            apply(&self.x_prev, &mut self.r2);
            for (ri, &bi) in self.r2.iter_mut().zip(b) {
                *ri = bi - *ri;
            }
            let rprev = norm(&self.r2);
            if rprev.is_finite() && rprev < rnorm {
                x.copy_from_slice(&self.x_prev);
                std::mem::swap(&mut self.r, &mut self.r2);
                rnorm = rprev;
                committed = true;
            }
        }
        if self.count == 0 || rnorm == 0.0 {
            return committed;
        }
        let k = self.count;
        // AU and the Galerkin system G = Uᴴ (A U), y = Uᴴ r.
        for j in 0..k {
            apply(
                &self.u[j * n..(j + 1) * n],
                &mut self.au[j * n..(j + 1) * n],
            );
        }
        for j in 0..k {
            let auj = &self.au[j * n..(j + 1) * n];
            for i in 0..k {
                self.g[j * k + i] = dot_conj(&self.u[i * n..(i + 1) * n], auj);
            }
            self.y[j] = dot_conj(&self.u[j * n..(j + 1) * n], &self.r);
        }
        if !solve_small_in_place(&mut self.g[..k * k], &mut self.y[..k], k) {
            return committed;
        }
        if self.y[..k].iter().any(|v| !v.is_finite()) {
            return committed;
        }
        // Candidate residual r_new = r − (A U) y, evaluated in place —
        // the commit gate of the never-worsen rule.
        for j in 0..k {
            axpy_neg(self.y[j], &self.au[j * n..(j + 1) * n], &mut self.r);
        }
        let rnew = norm(&self.r);
        if !rnew.is_finite() || rnew >= rnorm {
            return committed;
        }
        for j in 0..k {
            axpy(self.y[j], &self.u[j * n..(j + 1) * n], x);
        }
        true
    }
}

/// In-place Gaussian elimination with partial pivoting for the tiny
/// (`k ≤ W`) column-major Galerkin system; `rhs` receives the solution.
/// Returns `false` on a degenerate or non-finite pivot.
fn solve_small_in_place(g: &mut [Complex64], rhs: &mut [Complex64], k: usize) -> bool {
    for col in 0..k {
        let mut piv = col;
        let mut best = g[col * k + col].abs();
        for row in col + 1..k {
            let mag = g[col * k + row].abs();
            if mag > best {
                best = mag;
                piv = row;
            }
        }
        if !best.is_finite() || best < RECYCLE_PIVOT_TOL {
            return false;
        }
        if piv != col {
            for j in col..k {
                g.swap(j * k + col, j * k + piv);
            }
            rhs.swap(col, piv);
        }
        let pivot = g[col * k + col];
        for row in col + 1..k {
            let factor = g[col * k + row] / pivot;
            if !factor.is_finite() {
                return false;
            }
            for j in col + 1..k {
                let sub = factor * g[j * k + col];
                g[j * k + row] -= sub;
            }
            rhs[row] -= factor * rhs[col];
        }
    }
    for col in (0..k).rev() {
        let mut acc = rhs[col];
        for j in col + 1..k {
            acc -= g[j * k + col] * rhs[j];
        }
        rhs[col] = acc / g[col * k + col];
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    /// Diagonally dominant banded matrix with deterministic pseudo-random
    /// entries (same generator as the banded tests).
    fn random_banded(n: usize, kl: usize, ku: usize, seed: u64) -> BandedMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let v = state.wrapping_mul(0x2545F4914F6CDD1D);
            (v >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut a = BandedMatrix::new(n, kl, ku);
        for i in 0..n {
            for j in i.saturating_sub(kl)..=(i + ku).min(n - 1) {
                let mut v = c64(next(), next());
                if i == j {
                    v += c64(4.0 + (kl + ku) as f64, 1.0);
                }
                a.set(i, j, v);
            }
        }
        a
    }

    fn perturb_diagonal(a: &BandedMatrix, strength: f64, seed: u64) -> BandedMatrix {
        let mut p = a.clone();
        let mut state = seed | 1;
        for i in 0..a.n() {
            state ^= state >> 13;
            state ^= state << 7;
            let u = (state % 1000) as f64 / 1000.0 - 0.5;
            p.add(i, i, c64(strength * u, strength * 0.3 * u));
        }
        p
    }

    #[test]
    fn converges_fast_near_the_preconditioner() {
        let n = 40;
        let a = random_banded(n, 3, 3, 7);
        let mut nominal = a.clone().factor().unwrap();
        let corner = perturb_diagonal(&a, 0.05, 99);
        let nrhs = 3;
        let b: Vec<Complex64> = (0..n * nrhs)
            .map(|k| c64((k as f64 * 0.1).sin(), (k as f64 * 0.05).cos()))
            .collect();
        let mut x = vec![Complex64::ZERO; n * nrhs];
        let mut ws = KrylovWorkspace::new();
        let q = bicgstab_precond_many(
            &corner,
            &mut nominal,
            &b,
            &mut x,
            nrhs,
            &IterativeOptions::default(),
            &mut ws,
        );
        assert!(q.converged, "{q:?}");
        assert!(q.max_iterations <= 5, "{q:?}");
        assert!(q.max_residual < 1e-8, "{q:?}");
        // Every column solves the perturbed system, not the nominal one.
        for c in 0..nrhs {
            let ax = corner.matvec(&x[c * n..(c + 1) * n]);
            let res: f64 = ax
                .iter()
                .zip(&b[c * n..(c + 1) * n])
                .map(|(p, q)| (*p - *q).norm_sqr())
                .sum::<f64>()
                .sqrt();
            assert!(res < 1e-6, "column {c} residual {res}");
            assert!(ws.stats()[c].converged);
        }
    }

    #[test]
    fn iteration_budget_reports_nonconvergence() {
        let n = 36;
        let a = random_banded(n, 2, 2, 3);
        let mut nominal = a.clone().factor().unwrap();
        // A violently different operator: the nominal factor is a poor
        // preconditioner, so one iteration cannot reach 1e-12.
        let corner = perturb_diagonal(&a, 40.0, 11);
        let b = vec![Complex64::ONE; n];
        let mut x = vec![Complex64::ZERO; n];
        let mut ws = KrylovWorkspace::new();
        let q = bicgstab_precond_many(
            &corner,
            &mut nominal,
            &b,
            &mut x,
            1,
            &IterativeOptions {
                tol: 1e-12,
                max_iters: 1,
                use_initial_guess: false,
                threads: 1,
            },
            &mut ws,
        );
        assert!(!q.converged);
        assert_eq!(q.max_iterations, 1);
        assert!(q.max_residual > 1e-12);
        assert!(!ws.stats()[0].converged);
    }

    #[test]
    fn zero_rhs_column_is_exact_in_zero_iterations() {
        let n = 20;
        let a = random_banded(n, 2, 2, 13);
        let mut nominal = a.clone().factor().unwrap();
        let corner = perturb_diagonal(&a, 0.01, 17);
        let mut b = vec![Complex64::ZERO; 2 * n];
        for (k, v) in b[n..].iter_mut().enumerate() {
            *v = c64((k as f64).sin(), 0.1);
        }
        let mut x = vec![c64(5.0, 5.0); 2 * n]; // poisoned
        let mut ws = KrylovWorkspace::new();
        let q = bicgstab_precond_many(
            &corner,
            &mut nominal,
            &b,
            &mut x,
            2,
            &IterativeOptions::default(),
            &mut ws,
        );
        assert!(q.converged);
        assert!(x[..n].iter().all(|v| v.abs() == 0.0));
        assert_eq!(ws.stats()[0].iterations, 0);
        assert!(ws.stats()[1].iterations >= 1);
    }

    /// A non-finite right-hand side must break its column *immediately*
    /// (zero iterations, reported unconverged with an ∞ residual) instead
    /// of sweeping the whole budget — `NaN.abs() < BREAKDOWN` is `false`,
    /// so the magnitude tests alone never catch it — while healthy
    /// columns in the same batch converge exactly as if solved alone.
    #[test]
    fn non_finite_rhs_breaks_down_immediately_without_poisoning_the_batch() {
        let n = 30;
        let a = random_banded(n, 2, 3, 71);
        let mut nominal = a.clone().factor().unwrap();
        let corner = perturb_diagonal(&a, 0.05, 13);
        let good: Vec<Complex64> = (0..n)
            .map(|k| c64((k as f64 * 0.07).sin(), (k as f64 * 0.03).cos()))
            .collect();
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // Column 0 poisoned, column 1 healthy.
            let mut b = vec![Complex64::ZERO; 2 * n];
            b[..n].copy_from_slice(&good);
            b[3] = c64(poison, 0.2);
            b[n..].copy_from_slice(&good);
            let mut x = vec![c64(9.0, -9.0); 2 * n]; // poisoned output
            let mut ws = KrylovWorkspace::new();
            let opts = IterativeOptions::default();
            let q = bicgstab_precond_many(&corner, &mut nominal, &b, &mut x, 2, &opts, &mut ws);
            assert!(!q.converged, "{poison}: {q:?}");
            let bad = ws.stats()[0];
            assert!(!bad.converged, "{poison}");
            assert_eq!(bad.iterations, 0, "{poison}: budget was spent anyway");
            assert!(bad.residual.is_infinite(), "{poison}: {bad:?}");
            assert!(
                x[..n].iter().all(|v| v.abs() == 0.0),
                "{poison}: broken column must return a defined (zero) solution"
            );
            // The healthy column is unaffected by its poisoned neighbour.
            let healthy = ws.stats()[1];
            assert!(healthy.converged, "{poison}: {healthy:?}");
            let mut x_alone = vec![Complex64::ZERO; n];
            let mut ws_alone = KrylovWorkspace::new();
            bicgstab_precond_many(
                &corner,
                &mut nominal,
                &good,
                &mut x_alone,
                1,
                &opts,
                &mut ws_alone,
            );
            assert_eq!(&x[n..], x_alone.as_slice(), "{poison}");
        }
    }

    /// A warm start carrying non-finite entries breaks the column at the
    /// initial-residual stage rather than iterating on garbage.
    #[test]
    fn non_finite_warm_start_breaks_down_immediately() {
        let n = 24;
        let a = random_banded(n, 2, 2, 19);
        let mut nominal = a.clone().factor().unwrap();
        let corner = perturb_diagonal(&a, 0.05, 7);
        let b: Vec<Complex64> = (0..n).map(|k| c64(1.0 + k as f64 * 0.1, -0.4)).collect();
        let mut x = vec![Complex64::ZERO; n];
        x[5] = c64(f64::NAN, 0.0);
        let mut ws = KrylovWorkspace::new();
        let opts = IterativeOptions {
            use_initial_guess: true,
            ..IterativeOptions::default()
        };
        let q = bicgstab_precond_many(&corner, &mut nominal, &b, &mut x, 1, &opts, &mut ws);
        assert!(!q.converged, "{q:?}");
        assert_eq!(ws.stats()[0].iterations, 0);
        assert!(ws.stats()[0].residual.is_infinite());
    }

    /// A non-finite operator entry poisons the Krylov scalars; the column
    /// must break down on the first poisoned quantity, not spend its
    /// whole iteration budget.
    #[test]
    fn non_finite_operator_breaks_down_without_spending_the_budget() {
        let n = 24;
        let a = random_banded(n, 2, 2, 23);
        let mut nominal = a.clone().factor().unwrap();
        let mut corner = perturb_diagonal(&a, 0.05, 9);
        corner.add(0, 1, c64(f64::NAN, 0.0));
        let b: Vec<Complex64> = (0..n).map(|k| c64(1.0 + k as f64 * 0.1, -0.4)).collect();
        let mut x = vec![Complex64::ZERO; n];
        let mut ws = KrylovWorkspace::new();
        let opts = IterativeOptions::default();
        let q = bicgstab_precond_many(&corner, &mut nominal, &b, &mut x, 1, &opts, &mut ws);
        assert!(!q.converged, "{q:?}");
        let stats = ws.stats()[0];
        assert!(stats.iterations <= 2, "broke down only after {stats:?}");
        assert!(stats.residual.is_infinite(), "{stats:?}");
    }

    #[test]
    fn workspace_is_allocation_stable_across_reuse() {
        let n = 24;
        let a = random_banded(n, 2, 2, 31);
        let mut nominal = a.clone().factor().unwrap();
        let b: Vec<Complex64> = (0..n * 2).map(|k| c64(k as f64 * 0.1, -0.3)).collect();
        let mut x = vec![Complex64::ZERO; n * 2];
        let mut ws = KrylovWorkspace::new();
        let opts = IterativeOptions::default();
        let corner = perturb_diagonal(&a, 0.02, 41);
        bicgstab_precond_many(&corner, &mut nominal, &b, &mut x, 2, &opts, &mut ws);
        let ptrs = [ws.r.as_ptr(), ws.p_hat.as_ptr(), ws.t.as_ptr()];
        let stats_ptr = ws.stats.as_ptr();
        for seed in 50..54 {
            let corner = perturb_diagonal(&a, 0.02, seed);
            bicgstab_precond_many(&corner, &mut nominal, &b, &mut x, 2, &opts, &mut ws);
        }
        assert_eq!(ptrs[0], ws.r.as_ptr(), "Krylov storage reallocated");
        assert_eq!(ptrs[1], ws.p_hat.as_ptr(), "Krylov storage reallocated");
        assert_eq!(ptrs[2], ws.t.as_ptr(), "Krylov storage reallocated");
        assert_eq!(stats_ptr, ws.stats.as_ptr(), "stats storage reallocated");
    }

    #[test]
    fn agrees_with_direct_solve_to_tolerance() {
        let n = 32;
        let a = random_banded(n, 3, 3, 57);
        let mut nominal = a.clone().factor().unwrap();
        let corner = perturb_diagonal(&a, 0.2, 23);
        let direct = corner.clone().factor().unwrap();
        let b: Vec<Complex64> = (0..n).map(|k| c64((k as f64 * 0.3).cos(), 0.4)).collect();
        let x_direct = direct.solve_vec(&b);
        let mut x = vec![Complex64::ZERO; n];
        let mut ws = KrylovWorkspace::new();
        let opts = IterativeOptions {
            tol: 1e-10,
            max_iters: 40,
            use_initial_guess: false,
            threads: 1,
        };
        let q = bicgstab_precond_many(&corner, &mut nominal, &b, &mut x, 1, &opts, &mut ws);
        assert!(q.converged);
        let xnorm: f64 = x_direct.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
        let err: f64 = x
            .iter()
            .zip(&x_direct)
            .map(|(p, q)| (*p - *q).norm_sqr())
            .sum::<f64>()
            .sqrt();
        assert!(err / xnorm < 1e-8, "iterative vs direct: {}", err / xnorm);
    }

    fn residual_of(a: &BandedMatrix, x: &[Complex64], b: &[Complex64]) -> f64 {
        let ax = a.matvec(x);
        ax.iter()
            .zip(b)
            .map(|(p, q)| (*p - *q).norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// Harvesting last epoch's correction and Galerkin-projecting the next
    /// residual onto it must strictly reduce that residual, and the
    /// recycled start must converge in no more iterations than the plain
    /// warm start.
    #[test]
    fn recycle_apply_reduces_residual_and_iterations() {
        let n = 48;
        let a = random_banded(n, 3, 3, 77);
        let mut nominal = a.clone().factor().unwrap();
        let b: Vec<Complex64> = (0..n)
            .map(|k| c64((k as f64 * 0.2).sin(), (k as f64 * 0.11).cos()))
            .collect();
        let opts = IterativeOptions {
            tol: 1e-10,
            max_iters: 40,
            use_initial_guess: true,
            threads: 1,
        };
        // Epoch 0: solve corner 0 cold, harvest the correction.
        let c0 = perturb_diagonal(&a, 0.3, 5);
        let mut x0 = vec![Complex64::ZERO; n];
        let mut ws = KrylovWorkspace::new();
        let q0 = bicgstab_precond_many(&c0, &mut nominal, &b, &mut x0, 1, &opts, &mut ws);
        assert!(q0.converged);
        let mut space = RecycleSpace::new(4);
        space.ensure_dim(n);
        assert!(space.harvest(&x0, 0)); // correction from x₀ = 0 is x itself
        assert_eq!(space.len(), 1);
        // Epoch 1: nearby corner, warm-started from x0. The recycled
        // projection must strictly reduce the starting residual.
        let c1 = perturb_diagonal(&a, 0.3, 6);
        let mut x_warm = x0.clone();
        let r_before = residual_of(&c1, &x_warm, &b);
        assert!(space.try_apply(&c1, 0, &b, &mut x_warm, 1));
        let r_after = residual_of(&c1, &x_warm, &b);
        assert!(
            r_after < r_before,
            "projection must not worsen: {r_after} vs {r_before}"
        );
        // ... and the recycled start converges at least as fast.
        let mut x_plain = x0.clone();
        let q_plain = bicgstab_precond_many(&c1, &mut nominal, &b, &mut x_plain, 1, &opts, &mut ws);
        let q_rec = bicgstab_precond_many(&c1, &mut nominal, &b, &mut x_warm, 1, &opts, &mut ws);
        assert!(q_plain.converged && q_rec.converged);
        assert!(
            q_rec.max_iterations <= q_plain.max_iterations,
            "recycled {} vs plain {}",
            q_rec.max_iterations,
            q_plain.max_iterations
        );
        // Both reach the same solution of the same system.
        let err: f64 = x_warm
            .iter()
            .zip(&x_plain)
            .map(|(p, q)| (*p - *q).norm_sqr())
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-6, "recycled vs plain solution drift {err}");
    }

    /// A remembered solution replaces a worse caller guess (residual
    /// strictly shrinks), is ignored when the guess is already better,
    /// and dies with the epoch window like the direction store.
    #[test]
    fn recycle_remembered_solution_substitutes_only_when_better() {
        let n = 40;
        let a = random_banded(n, 3, 3, 91);
        let mut nominal = a.clone().factor().unwrap();
        let b: Vec<Complex64> = (0..n)
            .map(|k| c64((k as f64 * 0.17).cos(), (k as f64 * 0.23).sin()))
            .collect();
        let opts = IterativeOptions {
            tol: 1e-10,
            max_iters: 40,
            use_initial_guess: true,
            threads: 1,
        };
        // Epoch 0: solve corner 0 and remember the full solution.
        let c0 = perturb_diagonal(&a, 0.2, 11);
        let mut x0 = vec![Complex64::ZERO; n];
        let mut ws = KrylovWorkspace::new();
        let q0 = bicgstab_precond_many(&c0, &mut nominal, &b, &mut x0, 1, &opts, &mut ws);
        assert!(q0.converged);
        let mut space = RecycleSpace::new(4);
        space.ensure_dim(n);
        space.remember_solution(&x0, 0);
        // Epoch 1, nearby corner, cold (zero) caller guess: the
        // remembered solution's residual beats ‖b‖, so it must be
        // substituted even though the direction store is empty.
        let c1 = perturb_diagonal(&a, 0.2, 12);
        let mut x = vec![Complex64::ZERO; n];
        let r_cold = residual_of(&c1, &x, &b);
        assert!(space.try_apply(&c1, 0, &b, &mut x, 1));
        let r_sub = residual_of(&c1, &x, &b);
        assert!(
            r_sub < r_cold,
            "substitution must shrink: {r_sub} vs {r_cold}"
        );
        assert_eq!(x, x0, "the remembered solution is the new start");
        // A caller guess that is already the exact solution of c1 beats
        // the remembered (epoch-0) solution: nothing is substituted.
        let mut x_exact = vec![Complex64::ZERO; n];
        let q1 = bicgstab_precond_many(&c1, &mut nominal, &b, &mut x_exact, 1, &opts, &mut ws);
        assert!(q1.converged);
        let x_best = x_exact.clone();
        assert!(!space.try_apply(&c1, 0, &b, &mut x_exact, 1));
        assert_eq!(x_exact, x_best, "a better guess must be kept");
        // Past the epoch window the remembered solution is dropped.
        let mut x_cold = vec![Complex64::ZERO; n];
        assert!(!space.try_apply(&c1, 0, &b, &mut x_cold, 5));
        assert!(x_cold.iter().all(|v| *v == Complex64::ZERO));
    }

    /// An epoch jump beyond `max_age` invalidates the store: the
    /// application is skipped, `x` is untouched and the directions are
    /// dropped.
    #[test]
    fn recycle_epoch_jump_invalidates_the_store() {
        let n = 24;
        let a = random_banded(n, 2, 2, 55);
        let b: Vec<Complex64> = (0..n).map(|k| c64(1.0 + k as f64 * 0.1, 0.3)).collect();
        let mut space = RecycleSpace::new(3);
        space.ensure_dim(n);
        let dir: Vec<Complex64> = (0..n).map(|k| c64((k as f64).cos(), 0.1)).collect();
        assert!(space.harvest(&dir, 2));
        assert_eq!(space.len(), 1);
        let mut x = vec![Complex64::ZERO; n];
        let x_before = x.clone();
        // Epoch 4 is two past the harvest stamp: too stale.
        assert!(!space.try_apply(&a, 0, &b, &mut x, 4));
        assert_eq!(x, x_before, "stale application must not touch x");
        assert!(space.is_empty(), "stale store must be dropped");
        // A backwards jump (optimiser reset) also invalidates.
        assert!(space.harvest(&dir, 9));
        assert!(!space.try_apply(&a, 0, &b, &mut x, 3));
        assert!(space.is_empty());
    }

    /// Non-finite corrections are rejected at harvest; duplicate
    /// directions are skipped; the ring overwrites the oldest direction
    /// once full and keeps the store orthonormal.
    #[test]
    fn recycle_harvest_hardening_and_ring_overwrite() {
        let n = 16;
        let mut space = RecycleSpace::new(2);
        space.ensure_dim(n);
        let mut poisoned = vec![Complex64::ONE; n];
        poisoned[7] = c64(f64::NAN, 0.0);
        assert!(!space.harvest(&poisoned, 0));
        assert!(space.is_empty());
        let zeros = vec![Complex64::ZERO; n];
        assert!(!space.harvest(&zeros, 0));
        let d1: Vec<Complex64> = (0..n).map(|k| c64((k as f64).sin(), 0.0)).collect();
        assert!(space.harvest(&d1, 0));
        // The same direction again is already captured: skipped.
        let scaled: Vec<Complex64> = d1.iter().map(|v| *v * c64(2.5, 0.0)).collect();
        assert!(!space.harvest(&scaled, 0));
        assert_eq!(space.len(), 1);
        let d2: Vec<Complex64> = (0..n).map(|k| c64(0.2, (k as f64).cos())).collect();
        let d3: Vec<Complex64> = (0..n).map(|k| c64((k * k % 5) as f64, -0.4)).collect();
        assert!(space.harvest(&d2, 0));
        assert!(space.harvest(&d3, 0)); // overwrites the oldest (d1's slot)
        assert_eq!(space.len(), 2);
        // Orthonormality of the stored pair.
        let u0 = &space.u[..n];
        let u1 = &space.u[n..2 * n];
        assert!((norm(u0) - 1.0).abs() < 1e-12);
        assert!((norm(u1) - 1.0).abs() < 1e-12);
        assert!(dot_conj(u0, u1).abs() < 1e-10);
    }

    /// Steady-state harvest/apply cycles must not reallocate.
    #[test]
    fn recycle_space_is_allocation_stable_across_reuse() {
        let n = 32;
        let a = random_banded(n, 2, 2, 91);
        let b: Vec<Complex64> = (0..n).map(|k| c64(0.3 * k as f64, 0.7)).collect();
        let mut space = RecycleSpace::new(4);
        space.ensure_dim(n);
        let seed_dir: Vec<Complex64> = (0..n).map(|k| c64((k as f64).sin(), 0.2)).collect();
        space.harvest(&seed_dir, 0);
        let ptrs = (space.u.as_ptr(), space.au.as_ptr(), space.g.as_ptr());
        let mut x = vec![Complex64::ZERO; n];
        for epoch in 1..6 {
            space.ensure_dim(n);
            space.try_apply(&a, 0, &b, &mut x, epoch);
            let dir: Vec<Complex64> = (0..n)
                .map(|k| c64((k as f64 * epoch as f64).cos(), 0.1 * epoch as f64))
                .collect();
            space.harvest(&dir, epoch);
        }
        assert_eq!(ptrs.0, space.u.as_ptr(), "direction storage reallocated");
        assert_eq!(ptrs.1, space.au.as_ptr(), "AU scratch reallocated");
        assert_eq!(ptrs.2, space.g.as_ptr(), "Galerkin scratch reallocated");
    }
}
