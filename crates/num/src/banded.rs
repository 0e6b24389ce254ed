//! Complex banded matrices, their LU factorisation with partial pivoting,
//! and the unpivoted `L·D·Lᵀ` of complex-symmetric bands.
//!
//! The 2-D FDFD Helmholtz operator is a 5-point stencil: with grid ordering
//! along the fast axis its bandwidth equals the fast-axis extent, so a
//! banded direct solver (the algorithm of LAPACK's `zgbtrf`/`zgbtrs`)
//! factors it in `O(n·b²)` time and solves each right-hand side in
//! `O(n·b)`. Only the forward orientation `A x = b` is provided: the
//! symmetrised FDFD operator is complex-symmetric (`Aᵀ = A`, checked by
//! [`BandedMatrix::asymmetry`]), so the adjoint method's `Aᵀλ = g` is the
//! same solve against the *same* factorisation.
//!
//! Storage is column-major LAPACK band format with `2·kl + ku + 1` rows per
//! column: the top `kl` rows are fill space for pivoting.
//!
//! # Workspace / ownership contract
//!
//! The solver supports two usage styles:
//!
//! * **One-shot** — [`BandedMatrix::factor`] consumes the matrix and moves
//!   its storage into the returned [`BandedLu`]; each call allocates fresh
//!   band storage via [`BandedMatrix::new`]. Simple, but in a hot loop the
//!   `(2·kl+ku+1)·n` complex allocation and its zero-fill dominate.
//! * **In-place refactor** — the caller keeps one [`BandedLu`], created
//!   once via [`BandedLu::placeholder`], and refactors it with
//!   [`BandedLu::refactor`], which lends the factor's own storage to the
//!   assembly: one band buffer, no copy, **zero heap allocations** once
//!   warm. When the new matrix agrees with the
//!   one the storage factors in every column before some `start`, those
//!   columns and their pivots are kept: only columns `start..` are
//!   assembled, the kept elimination steps that reach them are replayed
//!   onto them, and the elimination resumes at `start` — bit-identical to
//!   a fresh factorisation. Matrices that differ only late (a
//!   variation corner whose perturbed cells come late in the ordering)
//!   skip the leading share of the `O(n·kl·(kl+ku))` work.
//!
//! Multi-RHS solves go through [`BandedLu::solve_many`], which makes a
//! *single* pass over the factors for all right-hand sides.
//!
//! [`BandedLdl`] factors a complex-symmetric band from its lower triangle
//! without pivoting: a third of the LU's storage and about a quarter of
//! its elimination work, with the same in-place refactor and resume
//! contract, but no bound on the multipliers. It serves every direct
//! factor of the design-window path — the fixed slabs and the window's
//! Schur complement — and the whole-grid normalisation reference, whose
//! solves are backward-error checked with the pivoted LU to fall back on.
//! Its forward and back sweeps are public in parts, so a caller can
//! replay the steps a late change reaches, or solve for the trailing
//! rows only ([`BandedLdl::trailing_inverse_block`]).
//!
//! The factorisation kernel is shared by both styles and is written in
//! slice/iterator form (no bounds checks in the inner loops). Its complex
//! axpy updates, like those of the substitution sweeps and of the `f32`
//! preconditioner sweeps, go through a kernel dispatched at runtime: an
//! explicit AVX loop when the CPU has AVX, the portable scalar loop
//! otherwise, bit-identical to each other. The dispatch is explicit
//! because LLVM leaves the portable loop scalar for the default
//! baseline-x86-64 build and vectorises it poorly even with
//! `-C target-cpu=native`. Pivot selection uses
//! `|·|²` instead of `|·|` (equivalent argmax, no `hypot` per entry). The
//! seed's straightforward scalar implementation is preserved unchanged in
//! [`reference`](mod@reference) as the correctness baseline for property tests and as the
//! naïve side of the `solver` criterion bench.
//!
//! # Examples
//!
//! ```
//! use boson_num::{banded::BandedMatrix, c64, Complex64};
//!
//! // Tridiagonal system (kl = ku = 1): -u'' = f discretised.
//! let n = 5;
//! let mut a = BandedMatrix::new(n, 1, 1);
//! for i in 0..n {
//!     a.add(i, i, c64(2.0, 0.0));
//!     if i > 0 { a.add(i, i - 1, c64(-1.0, 0.0)); }
//!     if i + 1 < n { a.add(i, i + 1, c64(-1.0, 0.0)); }
//! }
//! let lu = a.factor()?;
//! let mut b = vec![Complex64::ONE; n];
//! lu.solve(&mut b);
//! // middle of the discrete parabola is the largest
//! assert!(b[2].re > b[0].re);
//! # Ok::<(), boson_num::banded::SingularMatrixError>(())
//! ```
//!
//! Allocation-free reuse across repeated factorisations:
//!
//! ```
//! use boson_num::banded::{BandedLu, BandedMatrix};
//! use boson_num::c64;
//!
//! let mut lu = BandedLu::placeholder();
//! for shift in [2.0, 3.0] {
//!     lu.refactor(4, 1, 1, 0, |a: &mut BandedMatrix, _| {
//!         for i in 0..4 { a.set(i, i, c64(shift, 0.0)); }
//!     })
//!     .unwrap();
//!     let mut x = vec![c64(1.0, 0.0); 4];
//!     lu.solve(&mut x);
//!     assert!((x[0].re - 1.0 / shift).abs() < 1e-14);
//! }
//! ```

use crate::complex::{axpy_neg, dotu, scal};
use crate::Complex64;
use std::fmt;

/// Error returned when LU factorisation encounters an exactly-zero pivot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// Column at which the zero pivot appeared.
    pub column: usize,
}

impl fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix is singular: zero pivot at column {}",
            self.column
        )
    }
}

impl std::error::Error for SingularMatrixError {}

/// A square complex matrix stored in LAPACK general-band format.
///
/// `kl` sub-diagonals and `ku` super-diagonals are representable; entries
/// outside the band are structurally zero.
#[derive(Clone)]
pub struct BandedMatrix {
    n: usize,
    kl: usize,
    ku: usize,
    /// Column-major band storage, `ldab = 2*kl + ku + 1` rows per column.
    ab: Vec<Complex64>,
}

impl fmt::Debug for BandedMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BandedMatrix(n={}, kl={}, ku={})",
            self.n, self.kl, self.ku
        )
    }
}

impl BandedMatrix {
    /// Creates an all-zero `n×n` banded matrix with `kl` sub- and `ku`
    /// super-diagonals.
    pub fn new(n: usize, kl: usize, ku: usize) -> Self {
        let ldab = 2 * kl + ku + 1;
        Self {
            n,
            kl,
            ku,
            ab: vec![Complex64::ZERO; ldab * n],
        }
    }

    /// Matrix dimension.
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of sub-diagonals.
    #[inline(always)]
    pub fn kl(&self) -> usize {
        self.kl
    }

    /// Number of super-diagonals.
    #[inline(always)]
    pub fn ku(&self) -> usize {
        self.ku
    }

    #[inline(always)]
    fn ldab(&self) -> usize {
        2 * self.kl + self.ku + 1
    }

    /// Flat index of logical entry `(i, j)`; valid only inside the band.
    #[inline(always)]
    fn idx(&self, i: usize, j: usize) -> usize {
        // row within column j's band block: kl + ku + i - j
        j * self.ldab() + (self.kl + self.ku + i - j)
    }

    /// `true` when `(i, j)` lies inside the stored band.
    #[inline(always)]
    pub fn in_band(&self, i: usize, j: usize) -> bool {
        i < self.n && j < self.n && i + self.ku >= j && j + self.kl >= i
    }

    /// Adds `v` to entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is outside the band.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: Complex64) {
        assert!(
            self.in_band(i, j),
            "entry ({i},{j}) outside band (n={}, kl={}, ku={})",
            self.n,
            self.kl,
            self.ku
        );
        let k = self.idx(i, j);
        self.ab[k] += v;
    }

    /// Overwrites entry `(i, j)` with `v`.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is outside the band.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: Complex64) {
        assert!(self.in_band(i, j), "entry ({i},{j}) outside band");
        let k = self.idx(i, j);
        self.ab[k] = v;
    }

    /// Returns entry `(i, j)` (zero outside the band).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Complex64 {
        if self.in_band(i, j) {
            self.ab[self.idx(i, j)]
        } else {
            Complex64::ZERO
        }
    }

    /// Dense matrix–vector product `y = A x` (for tests and residuals).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn matvec(&self, x: &[Complex64]) -> Vec<Complex64> {
        let mut y = vec![Complex64::ZERO; self.n];
        self.matvec_into(x, &mut y);
        y
    }

    /// Allocation-free matrix–vector product `y = A x`, overwriting `y`.
    ///
    /// Sweeps the band storage column by column (each column is contiguous,
    /// so the inner update is a [`crate::complex::axpy`] over a slice); this
    /// is the operator application behind the matrix-free iterative solver
    /// in [`crate::krylov`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n` or `y.len() != n`.
    pub fn matvec_into(&self, x: &[Complex64], y: &mut [Complex64]) {
        assert_eq!(x.len(), self.n, "matvec dimension mismatch");
        assert_eq!(y.len(), self.n, "matvec output dimension mismatch");
        y.fill(Complex64::ZERO);
        for (j, &xj) in x.iter().enumerate() {
            let ilo = j.saturating_sub(self.ku);
            let ihi = (j + self.kl).min(self.n - 1);
            let base = self.idx(ilo, j);
            crate::complex::axpy(xj, &self.ab[base..=base + (ihi - ilo)], &mut y[ilo..=ihi]);
        }
    }

    /// Maximum relative asymmetry `|A - Aᵀ|/|A|` over the band — used to
    /// verify that the symmetrised FDFD assembly really is symmetric.
    pub fn asymmetry(&self) -> f64 {
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for j in 0..self.n {
            let ilo = j.saturating_sub(self.ku);
            let ihi = (j + self.kl).min(self.n - 1);
            for i in ilo..=ihi {
                let a = self.get(i, j);
                let b = self.get(j, i);
                num = num.max((a - b).abs());
                den = den.max(a.abs());
            }
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Factors the matrix (partial pivoting), consuming it.
    ///
    /// The band storage moves into the returned factorisation without a
    /// copy. For repeated factorisations prefer [`BandedLu::refactor`],
    /// which assembles into a kept factor's storage.
    ///
    /// # Examples
    ///
    /// ```
    /// use boson_num::banded::BandedMatrix;
    /// use boson_num::{c64, Complex64};
    ///
    /// // Tridiagonal system: 2x_i − x_{i−1} − x_{i+1} = b_i.
    /// let n = 8;
    /// let mut a = BandedMatrix::new(n, 1, 1);
    /// for i in 0..n {
    ///     a.set(i, i, c64(2.0, 0.0));
    ///     if i > 0 {
    ///         a.set(i, i - 1, c64(-1.0, 0.0));
    ///         a.set(i - 1, i, c64(-1.0, 0.0));
    ///     }
    /// }
    /// let check = a.clone();
    /// let lu = a.factor()?;
    /// let x = lu.solve_vec(&vec![Complex64::ONE; n]);
    /// // The factorisation solves the original system: A x == b.
    /// for ax in check.matvec(&x) {
    ///     assert!((ax - Complex64::ONE).abs() < 1e-12);
    /// }
    /// # Ok::<(), boson_num::banded::SingularMatrixError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if an exactly-zero pivot is met.
    pub fn factor(mut self) -> Result<BandedLu, SingularMatrixError> {
        let mut ipiv = vec![0usize; self.n];
        factor_kernel(self.n, self.kl, self.ku, &mut self.ab, &mut ipiv, 0)?;
        Ok(BandedLu {
            n: self.n,
            kl: self.kl,
            ku: self.ku,
            ab: std::mem::take(&mut self.ab),
            ipiv,
            kept: self.n,
        })
    }

    /// [`BandedMatrix::factor`] through the portable `axpy_neg` loop,
    /// leaving the matrix intact and returning the factor storage and
    /// pivots.
    #[cfg(test)]
    pub(crate) fn factor_portable(
        &self,
    ) -> Result<(Vec<Complex64>, Vec<usize>), SingularMatrixError> {
        let mut ab = self.ab.clone();
        let mut ipiv = vec![0; self.n];
        factor_kernel_with(
            self.n,
            self.kl,
            self.ku,
            &mut ab,
            &mut ipiv,
            0,
            crate::complex::axpy_neg_scalar,
        )?;
        Ok((ab, ipiv))
    }
}

/// The in-place `zgbtrf`-style kernel behind [`BandedMatrix::factor`] and
/// [`BandedLu::refactor`], resuming the
/// elimination at column `start`.
///
/// Columns before `start` and `ipiv[..start]` must hold a finished
/// factorisation of a matrix whose columns before `start` equal this
/// one's; columns from `start` on hold this matrix's entries. The kept
/// steps `j < start` whose row swap and rank-1 update reach past `start`
/// are replayed onto columns `[start, start + kl + ku)` in step order
/// before the elimination continues, so every column receives the
/// operations of a from-scratch factorisation in the same order:
/// bit-identical for any `start`.
///
/// Pivot selection compares `|·|²` (same argmax as `|·|`, no `hypot`), the
/// column scaling multiplies by the precomputed pivot inverse, and the
/// rank-1 trailing update runs on disjoint slices through the dispatched
/// [`axpy_neg`] (AVX where available).
fn factor_kernel(
    n: usize,
    kl: usize,
    ku: usize,
    ab: &mut [Complex64],
    ipiv: &mut [usize],
    start: usize,
) -> Result<(), SingularMatrixError> {
    factor_kernel_with(n, kl, ku, ab, ipiv, start, axpy_neg)
}

/// [`factor_kernel`] over a given `y -= a·x` kernel, so the tests can run
/// the portable loop against the dispatched one.
fn factor_kernel_with(
    n: usize,
    kl: usize,
    ku: usize,
    ab: &mut [Complex64],
    ipiv: &mut [usize],
    start: usize,
    axpy_neg: impl Fn(Complex64, &[Complex64], &mut [Complex64]),
) -> Result<(), SingularMatrixError> {
    let ldab = 2 * kl + ku + 1;
    let kv = kl + ku;
    debug_assert_eq!(ab.len(), ldab * n);
    debug_assert_eq!(ipiv.len(), n);
    debug_assert!(start <= n);

    // Replay the kept steps that reach columns at or after `start`.
    for j in start.saturating_sub(kv)..start {
        let chi = (j + kv).min(n - 1);
        if chi >= start {
            eliminate(
                ab,
                ldab,
                kv,
                kl.min(n - 1 - j),
                j,
                ipiv[j],
                start..=chi,
                &axpy_neg,
            );
        }
    }
    for j in start..n {
        // Number of sub-diagonal rows present in this column.
        let km = kl.min(n - 1 - j);
        let col = j * ldab + kv; // diagonal position within column j
                                 // Find pivot: largest |A(i,j)|² for i in j..=j+km.
        let mut jp = 0usize;
        let mut best = ab[col].norm_sqr();
        for (i, v) in ab[col + 1..=col + km].iter().enumerate() {
            let m = v.norm_sqr();
            if m > best {
                best = m;
                jp = i + 1;
            }
        }
        ipiv[j] = j + jp;
        if best == 0.0 {
            return Err(SingularMatrixError { column: j });
        }
        // Swap rows j and j+jp in the pivot column, compute the
        // multipliers, then apply the step to the columns it reaches.
        ab.swap(col, col + jp);
        let piv_inv = ab[col].inv();
        scal(piv_inv, &mut ab[col + 1..=col + km]);
        let chi = (j + kv).min(n - 1);
        eliminate(ab, ldab, kv, km, j, j + jp, j + 1..=chi, &axpy_neg);
    }
    Ok(())
}

/// Applies elimination step `j` to the columns `cols` (all right of `j`):
/// the swap of rows `j` and `p`, then the rank-1 update by the `km`
/// multipliers stored below column `j`'s diagonal.
#[allow(clippy::too_many_arguments)] // the band geometry + one step
#[inline(always)]
fn eliminate(
    ab: &mut [Complex64],
    ldab: usize,
    kv: usize,
    km: usize,
    j: usize,
    p: usize,
    cols: std::ops::RangeInclusive<usize>,
    axpy_neg: &impl Fn(Complex64, &[Complex64], &mut [Complex64]),
) {
    let col = j * ldab + kv;
    for c in cols {
        // Row r of A in column c sits at ab[c*ldab + kv + r - c]. The
        // multiplier column (column j) always precedes column c in
        // storage, so a split at c's column start yields disjoint slices.
        let d = c - j;
        let (head, tail) = ab.split_at_mut(c * ldab);
        tail.swap(kv - d, kv - d + (p - j));
        let t = tail[kv - d]; // A(j, c)
        if t.re != 0.0 || t.im != 0.0 {
            let src = &head[col + 1..=col + km];
            let dst = &mut tail[kv - d + 1..=kv - d + km];
            axpy_neg(t, src, dst);
        }
    }
}

/// Default number of right-hand-side columns per factor sweep in
/// [`BandedLu::solve_many`].
///
/// Each factor column touches a `kl + ku + 1` window in every RHS; 32
/// columns keep those windows comfortably inside L2 for FDFD-scale
/// bandwidths while amortising the factor reads. The
/// `solve_many_rhs_blocking` criterion sweep
/// (`crates/bench/benches/solver.rs`, results in `BENCH_solver.json`)
/// shows a flat 16–32 optimum (~13% over block 4 at 64 RHS on a 64×64
/// grid); 32 is taken from that plateau so a full variation-corner batch
/// (≤ ~32 active columns) still costs a single factor read per sweep.
pub const RHS_BLOCK: usize = 32;

/// The LU factorisation of a [`BandedMatrix`], ready to solve systems.
#[derive(Clone)]
pub struct BandedLu {
    n: usize,
    kl: usize,
    ku: usize,
    ab: Vec<Complex64>,
    ipiv: Vec<usize>,
    /// Leading columns (with their pivots) that hold a finished
    /// factorisation: `n` after a successful one, 0 otherwise. Bounds the
    /// column a [`BandedLu::refactor`] may resume from.
    kept: usize,
}

impl fmt::Debug for BandedLu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BandedLu(n={}, kl={}, ku={})", self.n, self.kl, self.ku)
    }
}

impl BandedLu {
    /// The factor storage and pivots, for bit-level comparisons in tests.
    #[cfg(test)]
    pub(crate) fn raw_parts(&self) -> (&[Complex64], &[usize]) {
        (&self.ab, &self.ipiv)
    }

    /// An empty factorisation slot for workspace reuse: fill it with
    /// [`BandedLu::refactor`] before solving.
    pub fn placeholder() -> Self {
        Self {
            n: 0,
            kl: 0,
            ku: 0,
            ab: Vec::new(),
            ipiv: Vec::new(),
            kept: 0,
        }
    }

    /// Refactors in place for an `n×n` matrix with `kl`/`ku` diagonals
    /// that agrees with the matrix this storage factors in every column
    /// before `start`, assembling straight into the factor's storage.
    ///
    /// Columns before `start` and their pivots are kept. The columns from
    /// `start` on are zeroed and lent to `assemble` as a [`BandedMatrix`],
    /// together with the start column; `assemble` writes the new matrix's
    /// entries in those columns and must neither touch the columns before
    /// `start` (they hold the kept factor) nor reshape the matrix. The
    /// kept elimination steps that reach past `start` (a row swap plus a
    /// rank-1 update each) are then replayed onto the lent columns in step
    /// order, and the elimination continues at `start`. Every column thus
    /// receives exactly the operations of a from-scratch factorisation, in
    /// the same order: the result is bit-identical to
    /// [`BandedMatrix::factor`] of the whole matrix.
    ///
    /// `start` is clamped to the columns the storage keeps: none for a
    /// [`BandedLu::placeholder`], after a shape change or after a failed
    /// factorisation; all `n` after a successful one. `start = 0` is a
    /// from-scratch factorisation, `start = n` keeps the factor as it is.
    /// Once the storage has the requested shape, the call performs no
    /// heap allocation.
    ///
    /// Returns the column the elimination resumed at.
    ///
    /// # Examples
    ///
    /// ```
    /// use boson_num::banded::{BandedLu, BandedMatrix};
    /// use boson_num::c64;
    ///
    /// // Tridiagonal matrices that differ only in their last diagonal entry.
    /// let n = 6;
    /// let assemble = |last: f64| {
    ///     move |a: &mut BandedMatrix, start: usize| {
    ///         for j in start..n {
    ///             a.set(j, j, c64(if j + 1 == n { last } else { 4.0 }, 0.0));
    ///             if j > 0 {
    ///                 a.set(j - 1, j, c64(-1.0, 0.0));
    ///             }
    ///             if j + 1 < n {
    ///                 a.set(j + 1, j, c64(-1.0, 0.0));
    ///             }
    ///         }
    ///     }
    /// };
    /// let mut lu = BandedLu::placeholder();
    /// assert_eq!(lu.refactor(n, 1, 1, 0, assemble(4.0))?, 0);
    /// // Only the last column changes: resume there.
    /// assert_eq!(lu.refactor(n, 1, 1, n - 1, assemble(5.0))?, n - 1);
    /// let mut fresh = BandedMatrix::new(n, 1, 1);
    /// assemble(5.0)(&mut fresh, 0);
    /// let b = vec![c64(1.0, 0.0); n];
    /// assert_eq!(lu.solve_vec(&b), fresh.factor()?.solve_vec(&b));
    /// # Ok::<(), boson_num::banded::SingularMatrixError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if an exactly-zero pivot is met; the
    /// storage then keeps no column, so the next refactor starts at 0.
    ///
    /// # Panics
    ///
    /// Panics if `assemble` reshapes the lent matrix.
    pub fn refactor(
        &mut self,
        n: usize,
        kl: usize,
        ku: usize,
        start: usize,
        assemble: impl FnOnce(&mut BandedMatrix, usize),
    ) -> Result<usize, SingularMatrixError> {
        let ldab = 2 * kl + ku + 1;
        // A storage length off its shape means an `assemble` panicked
        // while it held the storage: start over like a new shape.
        if (self.n, self.kl, self.ku, self.ab.len()) != (n, kl, ku, ldab * n) {
            self.n = n;
            self.kl = kl;
            self.ku = ku;
            self.ab.clear();
            self.ab.resize(ldab * n, Complex64::ZERO);
            self.ipiv.clear();
            self.ipiv.resize(n, 0);
            self.kept = 0;
        }
        let start = start.min(self.kept);
        if start == n {
            return Ok(start);
        }
        self.kept = 0;
        self.ab[start * ldab..].fill(Complex64::ZERO);
        let mut lent = BandedMatrix {
            n,
            kl,
            ku,
            ab: std::mem::take(&mut self.ab),
        };
        assemble(&mut lent, start);
        assert!(
            (lent.n, lent.kl, lent.ku, lent.ab.len()) == (n, kl, ku, ldab * n),
            "refactor: the lent matrix was reshaped"
        );
        self.ab = lent.ab;
        factor_kernel(n, kl, ku, &mut self.ab, &mut self.ipiv, start)?;
        self.kept = n;
        Ok(start)
    }

    /// Matrix dimension (0 for a [`BandedLu::placeholder`] never filled).
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The largest `|u_ij|` of the upper factor (0 for an unfilled
    /// placeholder): over the largest `|a_ij|`, the element growth factor
    /// of the elimination, the quantity a backward-error bound of the
    /// solves scales with.
    pub fn max_abs_upper(&self) -> f64 {
        let (ldab, kv) = (self.ldab(), self.kl + self.ku);
        let mut max = 0.0f64;
        for j in 0..self.n {
            let col = j * ldab + kv;
            for u in &self.ab[col - kv.min(j)..=col] {
                max = max.max(u.abs());
            }
        }
        max
    }

    #[inline(always)]
    fn ldab(&self) -> usize {
        2 * self.kl + self.ku + 1
    }

    /// Solves `A x = b` in place (`b` becomes `x`).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n`.
    pub fn solve(&self, b: &mut [Complex64]) {
        assert_eq!(b.len(), self.n, "solve dimension mismatch");
        self.solve_many(b, 1);
    }

    /// Solves `A X = B` in place for `nrhs` right-hand sides stored
    /// column-major in `b` (`b.len() == n·nrhs`, column stride `n`).
    ///
    /// Right-hand sides advance through a **single sweep** over the
    /// factors (the `zgbtrs` blocking), so the factor data is read once
    /// per column instead of once per column *per RHS* — the batched form
    /// used for forward+adjoint pairs and multi-excitation objectives.
    /// Very large batches are processed [`RHS_BLOCK`] columns at a time so
    /// the active window of every right-hand side stays cache-resident
    /// (see [`BandedLu::solve_many_blocked`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use boson_num::banded::BandedMatrix;
    /// use boson_num::{c64, Complex64};
    ///
    /// let n = 6;
    /// let mut a = BandedMatrix::new(n, 1, 1);
    /// for i in 0..n {
    ///     a.set(i, i, c64(3.0, 0.5));
    ///     if i > 0 {
    ///         a.set(i, i - 1, c64(-1.0, 0.0));
    ///         a.set(i - 1, i, c64(-1.0, 0.0));
    ///     }
    /// }
    /// let check = a.clone();
    /// let lu = a.factor()?;
    /// // Two right-hand sides, column-major in one buffer; both are
    /// // solved in a single sweep over the factors.
    /// let mut b = vec![Complex64::ONE; 2 * n];
    /// for v in &mut b[n..] {
    ///     *v = c64(0.0, 2.0);
    /// }
    /// let rhs = b.clone();
    /// lu.solve_many(&mut b, 2);
    /// for col in 0..2 {
    ///     let ax = check.matvec(&b[col * n..(col + 1) * n]);
    ///     for (ax, b0) in ax.iter().zip(&rhs[col * n..(col + 1) * n]) {
    ///         assert!((*ax - *b0).abs() < 1e-12);
    ///     }
    /// }
    /// # Ok::<(), boson_num::banded::SingularMatrixError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n * nrhs`.
    pub fn solve_many(&self, b: &mut [Complex64], nrhs: usize) {
        self.solve_many_blocked(b, nrhs, RHS_BLOCK);
    }

    /// [`BandedLu::solve_many`] with an explicit RHS block size: the batch
    /// is split into chunks of at most `block` columns and each chunk gets
    /// its own factor sweep.
    ///
    /// Per column `j` of the factors the substitution touches a window of
    /// `kl + ku + 1` entries in every right-hand side; once
    /// `nrhs × window` outgrows L2 those windows start evicting each
    /// other and the sweep turns memory-bound. Blocking trades extra
    /// factor reads (one sweep per chunk) for resident windows, which wins
    /// for large multi-wavelength batches. Columns are solved
    /// independently, so any block size gives bit-identical results; the
    /// [`RHS_BLOCK`] default was picked by the `solve_many_rhs_blocking`
    /// sweep in the `solver` criterion bench.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n * nrhs` or `block == 0`.
    pub fn solve_many_blocked(&self, b: &mut [Complex64], nrhs: usize, block: usize) {
        assert_eq!(b.len(), self.n * nrhs, "solve_many dimension mismatch");
        assert!(block > 0, "RHS block size must be positive");
        for chunk in b.chunks_mut(self.n * block) {
            self.solve_sweep(chunk);
        }
    }

    /// One factor sweep over all columns of `b` (the pre-blocking
    /// [`BandedLu::solve_many`] body): per factor column the row swap and
    /// the unit-lower update of `L⁻¹·P`, then the back substitution
    /// `U x = y`.
    fn solve_sweep(&self, b: &mut [Complex64]) {
        let n = self.n;
        let (kl, ldab, kv) = (self.kl, self.ldab(), self.kl + self.ku);
        for j in 0..n {
            let p = self.ipiv[j];
            let km = kl.min(n - 1 - j);
            let col = j * ldab + kv;
            let l = &self.ab[col + 1..=col + km];
            for rhs in b.chunks_exact_mut(n) {
                if p != j {
                    rhs.swap(j, p);
                }
                let bj = rhs[j];
                axpy_neg(bj, l, &mut rhs[j + 1..=j + km]);
            }
        }
        for j in (0..n).rev() {
            let col = j * ldab + kv;
            let dinv = self.ab[col].inv();
            let reach = kv.min(j);
            let u = &self.ab[col - reach..col];
            for rhs in b.chunks_exact_mut(n) {
                let bj = rhs[j] * dinv;
                rhs[j] = bj;
                axpy_neg(bj, u, &mut rhs[j - reach..j]);
            }
        }
    }

    /// Convenience: solves into a fresh vector.
    pub fn solve_vec(&self, b: &[Complex64]) -> Vec<Complex64> {
        let mut x = b.to_vec();
        self.solve(&mut x);
        x
    }
}

/// The `L·D·Lᵀ` factorisation of a complex-symmetric band matrix
/// (`Aᵀ = A`, half-bandwidth `m`) without pivoting: `L` unit lower
/// triangular with `m` sub-diagonals, `D` diagonal.
///
/// Storage is the lower band only, column-major with `m + 1` entries per
/// column: column `j` holds `d_j`, then the multipliers
/// `l_{j+1,j} … l_{j+m,j}` (zero past row `n − 1`). With no row swaps
/// nothing leaves the band, so the factor stores `m + 1` entries per
/// column against the `3m + 1` of a [`BandedLu`] of the same matrix, and
/// elimination step `j` updates the `m(m+1)/2` entries of the lower
/// triangle it reaches against the LU's `m·2m`.
///
/// Nothing bounds the multipliers, so the factorisation is only as stable
/// as the matrix makes it: use it where a solve's backward error is
/// checked, with a [`BandedLu`] to fall back on. An exactly zero pivot is
/// a [`SingularMatrixError`] even when the matrix is not singular
/// (`[[0, 1], [1, 0]]`).
///
/// # Examples
///
/// ```
/// use boson_num::banded::BandedLdl;
/// use boson_num::c64;
///
/// // A complex-symmetric tridiagonal matrix, lower triangle only.
/// let n = 6;
/// let mut ldl = BandedLdl::placeholder();
/// ldl.refactor(n, 1, 0, |a: &mut BandedLdl, start| {
///     for j in start..n {
///         a.set(j, j, c64(3.0, 0.5));
///         if j + 1 < n {
///             a.set(j + 1, j, c64(-1.0, 0.25));
///         }
///     }
/// })?;
/// let mut x = vec![c64(1.0, 0.0); n];
/// ldl.solve_many(&mut x, 1);
/// // Row 0 of A·x: 3.5·x₀ + (−1 + 0.25i)·x₁ = 1.
/// let r = c64(3.0, 0.5) * x[0] + c64(-1.0, 0.25) * x[1];
/// assert!((r - c64(1.0, 0.0)).abs() < 1e-14);
/// # Ok::<(), boson_num::banded::SingularMatrixError>(())
/// ```
#[derive(Default)]
pub struct BandedLdl {
    n: usize,
    m: usize,
    ab: Vec<Complex64>,
    /// Leading columns that hold a finished factorisation: `n` after a
    /// successful one, 0 otherwise.
    kept: usize,
    /// First column [`BandedLdl::set`] and [`BandedLdl::add`] may write:
    /// the resume column while [`BandedLdl::refactor`] lends the storage
    /// to its assembly, `n` (none) otherwise.
    open: usize,
}

impl fmt::Debug for BandedLdl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BandedLdl(n={}, m={})", self.n, self.m)
    }
}

impl BandedLdl {
    /// An empty factorisation slot for workspace reuse: fill it with
    /// [`BandedLdl::refactor`] before solving.
    pub fn placeholder() -> Self {
        Self::default()
    }

    /// Refactors in place for an `n×n` complex-symmetric matrix with
    /// half-bandwidth `m` that agrees with the matrix this storage
    /// factors in every column before `start`, assembling straight into
    /// the factor's storage.
    ///
    /// Columns before `start` are kept. The columns from `start` on are
    /// zeroed, and `assemble` receives the factor and the start column:
    /// it writes the lower triangle of those columns (`A(i, j)` for
    /// `j ≥ start`, `j ≤ i ≤ j + m`) through [`BandedLdl::set`] and
    /// [`BandedLdl::add`]. The kept elimination steps
    /// `[start − m, start)` are then replayed onto the columns they reach,
    /// in step order, and the elimination continues at `start`: every
    /// column receives the operations of a from-scratch factorisation in
    /// the same order, so the result is bit-identical to `start = 0`.
    ///
    /// Step `j` scales column `j` by `d_j⁻¹` into the multipliers, then
    /// subtracts `t_c · l_{c..,j}` from each column `c` it reaches, with
    /// `t_c = d_j·l_{cj}`: the column's unscaled entry, recomputed from
    /// the stored factor so a replayed step needs nothing else. Each
    /// column update is one dispatched `axpy_neg`.
    ///
    /// `start` is clamped to the columns the storage keeps: none for a
    /// placeholder, after a shape change or after a failed factorisation;
    /// all `n` after a successful one (`start = n` keeps the factor as it
    /// is). Once the storage has the requested shape, the call performs
    /// no heap allocation. Returns the column the elimination resumed at.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] at the first exactly-zero pivot
    /// `d_j`; the storage then keeps no column.
    ///
    /// # Panics
    ///
    /// Panics if `assemble` refactors the storage it was lent.
    pub fn refactor(
        &mut self,
        n: usize,
        m: usize,
        start: usize,
        assemble: impl FnOnce(&mut BandedLdl, usize),
    ) -> Result<usize, SingularMatrixError> {
        if (self.n, self.m) != (n, m) {
            self.n = n;
            self.m = m;
            self.ab.clear();
            self.ab.resize((m + 1) * n, Complex64::ZERO);
            self.kept = 0;
        }
        let start = start.min(self.kept);
        if start == n {
            return Ok(start);
        }
        self.kept = 0;
        self.ab[start * (m + 1)..].fill(Complex64::ZERO);
        self.open = start;
        assemble(self, start);
        assert!(
            (self.n, self.m, self.ab.len(), self.open) == (n, m, (m + 1) * n, start),
            "refactor: the lent storage was refactored"
        );
        self.open = n;
        ldl_kernel(n, m, &mut self.ab, start, axpy_neg)?;
        self.kept = n;
        Ok(start)
    }

    /// Flat index of entry `(i, j)`, which must lie in the lower band
    /// (`j ≤ i ≤ j + m`, `i < n`) of a column open for assembly.
    #[inline(always)]
    fn open_idx(&self, i: usize, j: usize) -> usize {
        assert!(
            self.open <= j && j <= i && i <= j + self.m && i < self.n,
            "entry ({i},{j}) outside the open lower band (n={}, m={}, open from {})",
            self.n,
            self.m,
            self.open
        );
        j * (self.m + 1) + (i - j)
    }

    /// Overwrites lower-band entry `(i, j)` of the matrix being assembled.
    ///
    /// # Panics
    ///
    /// Panics outside [`BandedLdl::refactor`]'s `assemble`, or if `(i, j)`
    /// is not in the lower band (`j ≤ i ≤ j + m`) of a column from the
    /// start column on.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: Complex64) {
        let k = self.open_idx(i, j);
        self.ab[k] = v;
    }

    /// Adds `v` to lower-band entry `(i, j)` of the matrix being
    /// assembled.
    ///
    /// # Panics
    ///
    /// As [`BandedLdl::set`].
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: Complex64) {
        let k = self.open_idx(i, j);
        self.ab[k] += v;
    }

    /// The largest term `|l_ik|·|d_k|·|l_jk|` of the sums in `|L||D||Lᵀ|`
    /// (0 for an unfilled placeholder): over the largest `|a_ij|`, the
    /// element growth a solve's backward error scales with
    /// (`|ΔA| ≤ γ·|L||D||Lᵀ|`). It plays the role of
    /// [`BandedLu::max_abs_upper`], whose multipliers pivoting bounds
    /// by 1.
    pub fn max_abs_term(&self) -> f64 {
        if self.kept == 0 {
            return 0.0;
        }
        self.ab
            .chunks_exact(self.m + 1)
            .map(|col| {
                let l = col[1..].iter().fold(1.0f64, |m, v| m.max(v.abs()));
                col[0].abs() * l * l
            })
            .fold(0.0, f64::max)
    }

    /// Matrix dimension (0 for a [`BandedLdl::placeholder`] never filled).
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Heap bytes of the factor storage: `n·(m + 1)` entries.
    pub fn bytes(&self) -> usize {
        self.ab.len() * std::mem::size_of::<Complex64>()
    }

    /// Solves `A X = B` in place for `nrhs` right-hand sides stored
    /// column-major in `b`, [`RHS_BLOCK`] columns per sweep over the
    /// factor: the unit-lower forward sweep `L z = b`
    /// ([`BandedLdl::forward_steps`]), then the diagonal scale and the
    /// `Lᵀ` back sweep ([`BandedLdl::back_substitute`]).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n·nrhs` or the slot was never filled.
    pub fn solve_many(&self, b: &mut [Complex64], nrhs: usize) {
        self.assert_factored();
        assert_eq!(b.len(), self.n * nrhs, "solve_many dimension mismatch");
        for chunk in b.chunks_mut(self.n * RHS_BLOCK) {
            ldl_sweep(self.n, self.m, &self.ab, chunk, axpy_neg, dotu);
        }
    }

    fn assert_factored(&self) {
        assert!(self.kept == self.n && self.n > 0, "BandedLdl not factored");
    }

    /// Applies steps `steps` of the unit-lower forward sweep `L⁻¹` —
    /// step `j` subtracts `z_j` times column `j`'s multipliers from the
    /// rows below it (one dispatched axpy) — to every column of `b`, where
    /// each column holds rows `lo..n` of a right-hand side (`n − lo`
    /// entries).
    ///
    /// Step `j` reads row `j` and writes rows `j + 1..=j + m`, so a window
    /// that starts at or before the first step holds everything the steps
    /// touch. Steps `0..n` on full columns are the forward half of
    /// [`BandedLdl::solve_many`]; consecutive ranges give the same result
    /// bit for bit. No step before `r` reads a row from `r` on, so a
    /// right-hand side whose rows before `r` are zero may skip every step
    /// before `r`, and one that changes only from row `r` on may replay
    /// just steps `r..n` on the rows from `r` on, saved before step `r`.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never filled, `steps` is not within
    /// `lo..=n`, or `b` is not a whole number of `n − lo`-row columns.
    pub fn forward_steps(&self, lo: usize, steps: std::ops::Range<usize>, b: &mut [Complex64]) {
        self.assert_factored();
        let n = self.n;
        assert!(
            lo <= steps.start && steps.start <= steps.end && steps.end <= n,
            "forward_steps: steps {steps:?} outside rows {lo}..{n}"
        );
        assert!(
            lo < n && b.len().is_multiple_of(n - lo),
            "forward_steps: block is not whole columns"
        );
        ldl_forward(n, self.m, &self.ab, lo, steps, b, axpy_neg);
    }

    /// The back half of [`BandedLdl::solve_many`] in place on every
    /// full-length column of `b`: `x_j = z_j/d_j − Σ_i l_ij·x_i`, `j`
    /// from `n − 1` down (one dispatched dot product per factor column).
    ///
    /// # Panics
    ///
    /// Panics if the slot was never filled or `b` is not a whole number
    /// of `n`-row columns.
    pub fn back_substitute(&self, b: &mut [Complex64]) {
        self.assert_factored();
        assert!(
            b.len().is_multiple_of(self.n),
            "back_substitute: block is not whole columns"
        );
        ldl_back(self.n, self.m, &self.ab, 0, b, dotu);
    }

    /// [`BandedLdl::back_substitute`] restricted to the trailing `k`
    /// rows: each `k`-entry column of `tail` holds rows `n − k..n` of `z`
    /// and receives rows `n − k..n` of `Lᵀ⁻¹·D⁻¹·z`. `Lᵀ` is upper
    /// triangular, so those rows depend on no earlier row; the cost is
    /// `O(k·m)` per column instead of a whole sweep.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never filled, `k` is 0 or exceeds `n`, or
    /// `tail` is not a whole number of `k`-row columns.
    pub fn back_substitute_trailing(&self, tail: &mut [Complex64], k: usize) {
        self.assert_factored();
        assert!(
            k > 0 && k <= self.n && tail.len().is_multiple_of(k),
            "back_substitute_trailing: bad trailing block"
        );
        ldl_back(self.n, self.m, &self.ab, self.n - k, tail, dotu);
    }

    /// Writes the trailing `k×k` block of `A⁻¹` (rows and columns
    /// `n − k..n`) column-major into `out`.
    ///
    /// With `L₂₂` and `D₂` the trailing blocks of the factors, that block
    /// is `L₂₂⁻ᵀ·D₂⁻¹·L₂₂⁻¹`: `L⁻¹` is lower triangular, so it maps a unit
    /// vector of the trailing rows into the trailing rows. Each column is
    /// the forward steps `n − k..n` on the trailing rows
    /// ([`BandedLdl::forward_steps`]) and a trailing back substitution
    /// ([`BandedLdl::back_substitute_trailing`]): `O(k²·m)` work in all.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never filled, `k` is 0 or exceeds `n`, or
    /// `out.len() != k²`.
    pub fn trailing_inverse_block(&self, k: usize, out: &mut [Complex64]) {
        let n = self.n;
        assert!(k > 0 && k <= n, "trailing_inverse_block: bad block size");
        assert_eq!(out.len(), k * k, "trailing_inverse_block: output size");
        out.fill(Complex64::ZERO);
        for (c, col) in out.chunks_exact_mut(k).enumerate() {
            col[c] = Complex64::ONE;
        }
        self.forward_steps(n - k, n - k..n, out);
        self.back_substitute_trailing(out, k);
    }
}

/// The `L·D·Lᵀ` elimination behind [`BandedLdl::refactor`] over a given
/// `y -= a·x` kernel, resuming at column `start` (see there).
fn ldl_kernel(
    n: usize,
    m: usize,
    ab: &mut [Complex64],
    start: usize,
    axpy_neg: impl Fn(Complex64, &[Complex64], &mut [Complex64]),
) -> Result<(), SingularMatrixError> {
    let ld = m + 1;
    debug_assert_eq!(ab.len(), ld * n);
    // Replay the kept steps that reach columns at or after `start`.
    for j in start.saturating_sub(m)..start {
        let chi = (j + m).min(n - 1);
        if chi >= start {
            ldl_update(ab, ld, m.min(n - 1 - j), j, start..=chi, &axpy_neg);
        }
    }
    for j in start..n {
        let col = j * ld;
        let d = ab[col];
        if d.re == 0.0 && d.im == 0.0 {
            return Err(SingularMatrixError { column: j });
        }
        let km = m.min(n - 1 - j);
        scal(d.inv(), &mut ab[col + 1..=col + km]);
        ldl_update(ab, ld, km, j, j + 1..=j + km, &axpy_neg);
    }
    Ok(())
}

/// Applies elimination step `j` (its `km` multipliers below `d_j`) to the
/// columns `cols` right of `j`: column `c` loses `d_j·l_cj` times the
/// multipliers of rows `c..=j + km`.
#[inline(always)]
fn ldl_update(
    ab: &mut [Complex64],
    ld: usize,
    km: usize,
    j: usize,
    cols: std::ops::RangeInclusive<usize>,
    axpy_neg: &impl Fn(Complex64, &[Complex64], &mut [Complex64]),
) {
    let col = j * ld;
    let d = ab[col];
    for c in cols {
        let r = c - j;
        // Column j precedes column c in storage: the split at c's
        // column start yields disjoint slices.
        let (head, tail) = ab.split_at_mut(c * ld);
        let l = &head[col + r..=col + km];
        let t = d * l[0];
        if t.re != 0.0 || t.im != 0.0 {
            axpy_neg(t, l, &mut tail[..=km - r]);
        }
    }
}

/// One [`BandedLdl::solve_many`] sweep over whole `n`-row columns of `b`,
/// through the given axpy and dot kernels.
fn ldl_sweep(
    n: usize,
    m: usize,
    ab: &[Complex64],
    b: &mut [Complex64],
    axpy_neg: impl Fn(Complex64, &[Complex64], &mut [Complex64]),
    dotu: impl Fn(&[Complex64], &[Complex64]) -> Complex64,
) {
    ldl_forward(n, m, ab, 0, 0..n, b, axpy_neg);
    ldl_back(n, m, ab, 0, b, dotu);
}

/// Forward steps `steps` of `L⁻¹` on columns of `b` holding rows `lo..n`
/// (see [`BandedLdl::forward_steps`]).
fn ldl_forward(
    n: usize,
    m: usize,
    ab: &[Complex64],
    lo: usize,
    steps: std::ops::Range<usize>,
    b: &mut [Complex64],
    axpy_neg: impl Fn(Complex64, &[Complex64], &mut [Complex64]),
) {
    let ld = m + 1;
    for j in steps {
        let km = m.min(n - 1 - j);
        let l = &ab[j * ld + 1..=j * ld + km];
        let r = j - lo;
        for rhs in b.chunks_exact_mut(n - lo) {
            let zj = rhs[r];
            axpy_neg(zj, l, &mut rhs[r + 1..=r + km]);
        }
    }
}

/// The back sweep `x = Lᵀ⁻¹·D⁻¹·z` over rows `top..n`, on columns of `b`
/// holding those rows (see [`BandedLdl::back_substitute_trailing`]).
fn ldl_back(
    n: usize,
    m: usize,
    ab: &[Complex64],
    top: usize,
    b: &mut [Complex64],
    dotu: impl Fn(&[Complex64], &[Complex64]) -> Complex64,
) {
    let ld = m + 1;
    for j in (top..n).rev() {
        let km = m.min(n - 1 - j);
        let dinv = ab[j * ld].inv();
        let l = &ab[j * ld + 1..=j * ld + km];
        let r = j - top;
        for rhs in b.chunks_exact_mut(n - top) {
            let (head, tail) = rhs.split_at_mut(r + 1);
            head[r] = head[r] * dinv - dotu(l, &tail[..km]);
        }
    }
}

/// A single-precision copy of a [`BandedLu`], used as an *approximate*
/// preconditioner application engine.
///
/// Triangular sweeps over FDFD-scale factors are memory-bound: the factor
/// image is read once per sweep and a 2-D operator's factors run to tens
/// of megabytes. Storing the factors in `f32` halves that traffic and
/// doubles the SIMD width, roughly halving the cost of every
/// preconditioner application — while the *preconditioned Krylov
/// iteration* still runs in `f64` and measures true `f64` residuals, so
/// solution accuracy is set by the outer iteration's tolerance, not by
/// the `f32` storage (the factors are approximate qua preconditioner
/// anyway). Do **not** use this type for direct solves.
///
/// Applies go through [`BandedLuF32::solve_many_with_scratch`], which
/// takes the right-hand-side conversion scratch from the caller: the
/// factors stay shared, and a warm scratch makes the apply allocation-free.
#[derive(Debug, Clone, Default)]
pub struct BandedLuF32 {
    n: usize,
    kl: usize,
    ku: usize,
    /// Interleaved `(re, im)` single-precision factor image,
    /// `2·ldab·n` floats.
    ab: Vec<f32>,
    ipiv: Vec<usize>,
}

impl BandedLuF32 {
    /// An empty slot; fill with [`BandedLuF32::assign_from`].
    pub fn placeholder() -> Self {
        Self::default()
    }

    /// Matrix dimension (0 until assigned).
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Downconverts `lu`'s factors into this slot, reusing its buffers
    /// (no heap allocation once warm). The pivot sequence is shared —
    /// this is a storage conversion, not a refactorisation.
    pub fn assign_from(&mut self, lu: &BandedLu) {
        self.n = lu.n;
        self.kl = lu.kl;
        self.ku = lu.ku;
        self.ab.clear();
        self.ab
            .extend(lu.ab.iter().flat_map(|z| [z.re as f32, z.im as f32]));
        self.ipiv.clear();
        self.ipiv.extend_from_slice(&lu.ipiv);
    }

    /// Applies `M⁻¹` to `nrhs` column-major `f64` right-hand sides in
    /// place: converts to `f32` in the **caller-owned** `scratch`, sweeps
    /// the single-precision factors, and converts back. `self` stays
    /// shared, which is what lets several threads (or a per-column
    /// preconditioner family holding many factors behind one shared
    /// borrow) sweep the same factor image concurrently — each caller
    /// brings its own scratch, the factors are read-only.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n·nrhs` or the slot was never assigned.
    pub fn solve_many_with_scratch(
        &self,
        scratch: &mut Vec<f32>,
        b: &mut [Complex64],
        nrhs: usize,
    ) {
        solve32_with(
            self.n, self.kl, self.ku, &self.ab, &self.ipiv, scratch, b, nrhs,
        );
    }
}

/// Body of [`BandedLuF32::solve_many_with_scratch`]: converts the `f64`
/// block into the interleaved-`f32` scratch, sweeps [`RHS_BLOCK`]-column chunks
/// over the single-precision factors, and converts back.
#[allow(clippy::too_many_arguments)] // destructured BandedLuF32 + solve args
fn solve32_with(
    n: usize,
    kl: usize,
    ku: usize,
    ab: &[f32],
    ipiv: &[usize],
    scratch: &mut Vec<f32>,
    b: &mut [Complex64],
    nrhs: usize,
) {
    assert!(n > 0, "BandedLuF32 never assigned");
    assert_eq!(b.len(), n * nrhs, "solve dimension mismatch");
    scratch.clear();
    scratch.extend(b.iter().flat_map(|z| [z.re as f32, z.im as f32]));
    // Block the RHS like the f64 path so huge batches stay resident.
    let chunk_len = 2 * n * RHS_BLOCK;
    let ldab = 2 * kl + ku + 1;
    for chunk in scratch.chunks_mut(chunk_len) {
        sweep32(n, kl, ku, ldab, ab, ipiv, chunk);
    }
    for (dst, pair) in b.iter_mut().zip(scratch.chunks_exact(2)) {
        *dst = Complex64::new(pair[0] as f64, pair[1] as f64);
    }
}

/// `y[i] -= a·x[i]` over interleaved-complex `f32` slices: the AVX kernel
/// when the CPU has AVX (detected once per process), the portable
/// [`axpy_neg32_scalar`] otherwise, bit-identical to each other.
#[inline]
pub(crate) fn axpy_neg32(a_re: f32, a_im: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx() {
        // SAFETY: AVX support was detected at runtime just above.
        unsafe { crate::simd::axpy_neg32_avx(a_re, a_im, x, y) };
        return;
    }
    axpy_neg32_scalar(a_re, a_im, x, y);
}

/// The portable loop behind [`axpy_neg32`].
#[inline]
pub(crate) fn axpy_neg32_scalar(a_re: f32, a_im: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yp, xp) in y.chunks_exact_mut(2).zip(x.chunks_exact(2)) {
        yp[0] -= xp[0] * a_re - xp[1] * a_im;
        yp[1] -= xp[0] * a_im + xp[1] * a_re;
    }
}

/// Single-precision port of the forward sweep (`solve_sweep`) over
/// interleaved-complex storage. `b` holds whole columns (`2·n` floats
/// each).
fn sweep32(n: usize, kl: usize, ku: usize, ldab: usize, ab: &[f32], ipiv: &[usize], b: &mut [f32]) {
    let kv = kl + ku;
    // L x = P b.
    for j in 0..n {
        let p = ipiv[j];
        let km = kl.min(n - 1 - j);
        let col = 2 * (j * ldab + kv);
        let l = &ab[col + 2..col + 2 + 2 * km];
        for rhs in b.chunks_exact_mut(2 * n) {
            if p != j {
                rhs.swap(2 * j, 2 * p);
                rhs.swap(2 * j + 1, 2 * p + 1);
            }
            let (bre, bim) = (rhs[2 * j], rhs[2 * j + 1]);
            axpy_neg32(bre, bim, l, &mut rhs[2 * (j + 1)..2 * (j + 1 + km)]);
        }
    }
    // U x = b.
    for j in (0..n).rev() {
        let col = 2 * (j * ldab + kv);
        let (dre, dim_) = (ab[col], ab[col + 1]);
        let dn = dre * dre + dim_ * dim_;
        let (ire, iim) = (dre / dn, -dim_ / dn);
        let reach = kv.min(j);
        let u = &ab[col - 2 * reach..col];
        for rhs in b.chunks_exact_mut(2 * n) {
            let (bre, bim) = (rhs[2 * j], rhs[2 * j + 1]);
            let re = bre * ire - bim * iim;
            let im = bre * iim + bim * ire;
            rhs[2 * j] = re;
            rhs[2 * j + 1] = im;
            axpy_neg32(re, im, u, &mut rhs[2 * (j - reach)..2 * j]);
        }
    }
}

/// The seed's straightforward scalar implementation, kept verbatim as the
/// correctness baseline and as the naïve ("allocate per call, scalar
/// kernel") side of the `solver` criterion benchmark.
///
/// Do not optimise this module: its value is being the simple,
/// independently-written implementation the optimised kernels are checked
/// against (see `crates/num/tests/properties.rs`).
pub mod reference {
    use super::{BandedLu, BandedMatrix, SingularMatrixError};
    use crate::Complex64;

    /// Scalar `zgbtrf`, consuming the matrix (the seed's `factor`).
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if an exactly-zero pivot is met.
    pub fn factor(mut a: BandedMatrix) -> Result<BandedLu, SingularMatrixError> {
        let n = a.n;
        let kl = a.kl;
        let ku = a.ku;
        let ldab = 2 * kl + ku + 1;
        let kv = kl + ku;
        let ab = &mut a.ab;
        let mut ipiv = vec![0usize; n];

        for j in 0..n {
            let km = kl.min(n - 1 - j);
            let col = j * ldab + kl + ku;
            let mut jp = 0usize;
            let mut best = ab[col].abs();
            for i in 1..=km {
                let v = ab[col + i].abs();
                if v > best {
                    best = v;
                    jp = i;
                }
            }
            ipiv[j] = j + jp;
            if best == 0.0 {
                return Err(SingularMatrixError { column: j });
            }
            if jp != 0 {
                let chi = (j + kv).min(n - 1);
                for c in j..=chi {
                    let base = c * ldab + kl + ku;
                    let pa = base + j - c;
                    let pb = base + j + jp - c;
                    ab.swap(pa, pb);
                }
            }
            let piv = ab[col];
            for i in 1..=km {
                ab[col + i] /= piv;
            }
            let chi = (j + kv).min(n - 1);
            for c in (j + 1)..=chi {
                let base = c * ldab + kl + ku;
                let t = ab[base + j - c];
                if t.re != 0.0 || t.im != 0.0 {
                    for i in 1..=km {
                        let m = ab[col + i];
                        let dst = base + j + i - c;
                        ab[dst] -= m * t;
                    }
                }
            }
        }

        Ok(BandedLu {
            n,
            kl,
            ku,
            ab: std::mem::take(ab),
            ipiv,
            kept: n,
        })
    }

    /// Scalar single-RHS substitution (the seed's `solve`).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != lu.n()`.
    pub fn solve(lu: &BandedLu, b: &mut [Complex64]) {
        assert_eq!(b.len(), lu.n, "solve dimension mismatch");
        let n = lu.n;
        let kl = lu.kl;
        let ku = lu.ku;
        let ldab = 2 * kl + ku + 1;
        let kv = kl + ku;
        for j in 0..n {
            let p = lu.ipiv[j];
            if p != j {
                b.swap(j, p);
            }
            let km = kl.min(n - 1 - j);
            let col = j * ldab + kl + ku;
            let bj = b[j];
            for i in 1..=km {
                b[j + i] -= lu.ab[col + i] * bj;
            }
        }
        for j in (0..n).rev() {
            let col = j * ldab + kl + ku;
            b[j] /= lu.ab[col];
            let bj = b[j];
            let reach = kv.min(j);
            for i in 1..=reach {
                b[j - i] -= lu.ab[col - i] * bj;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    /// Build a well-conditioned random banded matrix with a dominant diagonal.
    fn random_banded(n: usize, kl: usize, ku: usize, seed: u64) -> BandedMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            // xorshift64*
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
                    v += c64(3.0 + (kl + ku) as f64, 1.0);
                }
                a.set(i, j, v);
            }
        }
        a
    }

    fn residual(a: &BandedMatrix, x: &[Complex64], b: &[Complex64]) -> f64 {
        let ax = a.matvec(x);
        ax.iter()
            .zip(b)
            .map(|(p, q)| (*p - *q).norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn solve_identity() {
        let n = 7;
        let mut a = BandedMatrix::new(n, 2, 2);
        for i in 0..n {
            a.set(i, i, Complex64::ONE);
        }
        let lu = a.factor().unwrap();
        let b: Vec<_> = (0..n).map(|i| c64(i as f64, -(i as f64))).collect();
        let x = lu.solve_vec(&b);
        for (u, v) in x.iter().zip(&b) {
            assert!((*u - *v).abs() < 1e-14);
        }
    }

    #[test]
    fn solve_random_systems_various_bandwidths() {
        for &(n, kl, ku) in &[
            (4usize, 1usize, 1usize),
            (10, 2, 3),
            (25, 4, 2),
            (40, 7, 7),
            (60, 1, 5),
        ] {
            let a = random_banded(n, kl, ku, (n * 31 + kl * 7 + ku) as u64);
            let b: Vec<_> = (0..n)
                .map(|i| c64((i as f64).cos(), (i as f64).sin()))
                .collect();
            let lu = a.clone().factor().unwrap();
            let x = lu.solve_vec(&b);
            let r = residual(&a, &x, &b);
            assert!(r < 1e-10, "residual {r} for n={n} kl={kl} ku={ku}");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // A = [[0, 1], [1, 0]] requires a row swap.
        let mut a = BandedMatrix::new(2, 1, 1);
        a.set(0, 1, Complex64::ONE);
        a.set(1, 0, Complex64::ONE);
        let lu = a.factor().unwrap();
        let x = lu.solve_vec(&[c64(2.0, 0.0), c64(3.0, 0.0)]);
        assert!((x[0] - c64(3.0, 0.0)).abs() < 1e-14);
        assert!((x[1] - c64(2.0, 0.0)).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_detected() {
        let mut a = BandedMatrix::new(3, 1, 1);
        a.set(0, 0, Complex64::ONE);
        a.set(0, 1, Complex64::ONE);
        // column 1 and row 1..2 left zero => singular
        let err = a.factor().unwrap_err();
        assert_eq!(err.column, 1);
        let msg = format!("{err}");
        assert!(msg.contains("singular"));
    }

    #[test]
    fn get_set_add_and_band_limits() {
        let mut a = BandedMatrix::new(5, 1, 2);
        assert!(a.in_band(0, 2));
        assert!(!a.in_band(0, 3));
        assert!(a.in_band(3, 2));
        assert!(!a.in_band(4, 2));
        a.set(2, 3, c64(5.0, 0.0));
        a.add(2, 3, c64(1.0, 1.0));
        assert_eq!(a.get(2, 3), c64(6.0, 1.0));
        assert_eq!(a.get(0, 4), Complex64::ZERO);
    }

    #[test]
    #[should_panic(expected = "outside band")]
    fn out_of_band_write_panics() {
        let mut a = BandedMatrix::new(5, 1, 1);
        a.set(0, 4, Complex64::ONE);
    }

    #[test]
    fn matvec_matches_manual() {
        let mut a = BandedMatrix::new(3, 1, 1);
        a.set(0, 0, c64(1.0, 0.0));
        a.set(0, 1, c64(2.0, 0.0));
        a.set(1, 0, c64(3.0, 0.0));
        a.set(1, 1, c64(4.0, 0.0));
        a.set(1, 2, c64(5.0, 0.0));
        a.set(2, 1, c64(6.0, 0.0));
        a.set(2, 2, c64(7.0, 0.0));
        let x = [Complex64::ONE, c64(2.0, 0.0), c64(3.0, 0.0)];
        let y = a.matvec(&x);
        assert_eq!(y[0], c64(5.0, 0.0));
        assert_eq!(y[1], c64(26.0, 0.0));
        assert_eq!(y[2], c64(33.0, 0.0));
    }

    #[test]
    fn asymmetry_detects_symmetric_matrices() {
        let mut a = BandedMatrix::new(4, 1, 1);
        for i in 0..4 {
            a.set(i, i, c64(2.0, -0.5));
        }
        for i in 0..3 {
            a.set(i, i + 1, c64(-1.0, 0.25));
            a.set(i + 1, i, c64(-1.0, 0.25));
        }
        assert!(a.asymmetry() < 1e-15);
        a.set(0, 1, c64(9.0, 0.0));
        assert!(a.asymmetry() > 0.1);
    }

    #[test]
    fn multiple_rhs_reuse_factorisation() {
        let n = 30;
        let a = random_banded(n, 3, 3, 99);
        let lu = a.clone().factor().unwrap();
        for k in 0..4 {
            let b: Vec<_> = (0..n)
                .map(|i| c64((i + k) as f64, (i * k) as f64 * 0.1))
                .collect();
            let x = lu.solve_vec(&b);
            assert!(residual(&a, &x, &b) < 1e-9);
        }
    }

    #[test]
    fn refactor_from_column_zero_matches_consuming_factor() {
        let a = random_banded(24, 3, 2, 5);
        let lu1 = a.clone().factor().unwrap();
        let mut lu2 = BandedLu::placeholder();
        assert_eq!(lu2.refactor(24, 3, 2, 0, columns_of(&a)), Ok(0));
        let b: Vec<_> = (0..24).map(|i| c64(i as f64, -0.5 * i as f64)).collect();
        let x1 = lu1.solve_vec(&b);
        let x2 = lu2.solve_vec(&b);
        for (p, q) in x1.iter().zip(&x2) {
            assert!((*p - *q).abs() < 1e-13);
        }
    }

    #[test]
    fn refactor_is_allocation_stable_across_reuse() {
        // Buffer pointers must not move between reuses with equal shapes —
        // the workspace contract behind the zero-allocation pipeline.
        let mut lu = BandedLu::placeholder();
        lu.refactor(20, 2, 2, 0, columns_of(&random_banded(20, 2, 2, 1)))
            .unwrap();
        let ab_ptr = lu.ab.as_ptr();
        let ipiv_ptr = lu.ipiv.as_ptr();
        for seed in 2..6 {
            let fresh = random_banded(20, 2, 2, seed);
            lu.refactor(20, 2, 2, 0, columns_of(&fresh)).unwrap();
            assert_eq!(lu.ab.as_ptr(), ab_ptr, "factor storage reallocated");
            assert_eq!(lu.ipiv.as_ptr(), ipiv_ptr, "pivot storage reallocated");
        }
    }

    #[test]
    fn solve_many_matches_column_by_column() {
        let n = 32;
        let a = random_banded(n, 4, 3, 77);
        let lu = a.clone().factor().unwrap();
        let nrhs = 5;
        let cols: Vec<Vec<Complex64>> = (0..nrhs)
            .map(|r| {
                (0..n)
                    .map(|i| c64((i * r + 1) as f64 * 0.1, (i + r) as f64 * 0.05))
                    .collect()
            })
            .collect();
        let mut block: Vec<Complex64> = cols.iter().flatten().copied().collect();
        lu.solve_many(&mut block, nrhs);
        for (r, col) in cols.iter().enumerate() {
            let x = lu.solve_vec(col);
            for (p, q) in x.iter().zip(&block[r * n..(r + 1) * n]) {
                assert!((*p - *q).abs() < 1e-12, "rhs {r} diverged");
            }
        }
    }

    /// The caller-owned conversion scratch carries no state between
    /// applies: a fresh scratch and one left dirty by a wider apply give
    /// bit-identical results through a shared borrow of the factors.
    #[test]
    fn f32_solve_with_external_scratch_is_bit_identical() {
        let n = 26;
        let a = random_banded(n, 3, 2, 77);
        let lu = a.factor().unwrap();
        let mut lu32 = BandedLuF32::placeholder();
        lu32.assign_from(&lu);
        let nrhs = 5;
        let b0: Vec<Complex64> = (0..n * nrhs)
            .map(|k| c64((k as f64 * 0.13).sin(), (k as f64 * 0.09).cos()))
            .collect();
        let mut fresh_scratch = Vec::new();
        let mut fresh = b0.clone();
        lu32.solve_many_with_scratch(&mut fresh_scratch, &mut fresh, nrhs);
        // Shared borrow + a scratch holding a wider, unrelated apply.
        let shared: &BandedLuF32 = &lu32;
        let mut scratch = Vec::new();
        let mut wide = vec![c64(3.0, -1.0); n * (nrhs + 2)];
        shared.solve_many_with_scratch(&mut scratch, &mut wide, nrhs + 2);
        let mut reused = b0;
        shared.solve_many_with_scratch(&mut scratch, &mut reused, nrhs);
        assert_eq!(fresh, reused);
        // Interleaved `f32` pairs, one per entry of the block.
        assert!(scratch.capacity() >= 2 * n * nrhs);
    }

    #[test]
    fn blocked_solve_many_matches_unblocked_for_any_block_size() {
        let n = 24;
        let a = random_banded(n, 3, 3, 123);
        let lu = a.factor().unwrap();
        let nrhs = 11;
        let block0: Vec<Complex64> = (0..n * nrhs)
            .map(|k| c64((k as f64 * 0.07).sin(), (k as f64 * 0.03).cos()))
            .collect();
        let mut reference = block0.clone();
        lu.solve_many_blocked(&mut reference, nrhs, nrhs); // single sweep
        for block in [1usize, 2, 3, 4, 8, 16, 64] {
            let mut b = block0.clone();
            lu.solve_many_blocked(&mut b, nrhs, block);
            assert_eq!(b, reference, "block={block}");
        }
        // The default path is one of them.
        let mut b = block0.clone();
        lu.solve_many(&mut b, nrhs);
        assert_eq!(b, reference);
    }

    #[test]
    fn f32_preconditioner_tracks_f64_solves_to_single_precision() {
        let n = 40;
        let a = random_banded(n, 4, 4, 2024);
        let lu = a.clone().factor().unwrap();
        let mut lu32 = BandedLuF32::placeholder();
        lu32.assign_from(&lu);
        assert_eq!(lu32.n(), n);
        let nrhs = 3;
        let b0: Vec<Complex64> = (0..n * nrhs)
            .map(|k| c64((k as f64 * 0.11).sin(), (k as f64 * 0.07).cos()))
            .collect();
        let mut exact = b0.clone();
        let mut approx = b0;
        lu.solve_many(&mut exact, nrhs);
        lu32.solve_many_with_scratch(&mut Vec::new(), &mut approx, nrhs);
        let scale: f64 = exact.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
        let err: f64 = exact
            .iter()
            .zip(&approx)
            .map(|(p, q)| (*p - *q).norm_sqr())
            .sum::<f64>()
            .sqrt();
        assert!(err / scale < 1e-5, "f32 sweep error {}", err / scale);
        // Reassignment reuses buffers.
        let ab_ptr = {
            lu32.assign_from(&lu);
            lu32.ab.as_ptr()
        };
        lu32.assign_from(&lu);
        assert_eq!(ab_ptr, lu32.ab.as_ptr(), "f32 factor storage reallocated");
    }

    #[test]
    fn matvec_into_matches_allocating_matvec() {
        let n = 31;
        let a = random_banded(n, 4, 2, 17);
        let x: Vec<Complex64> = (0..n)
            .map(|i| c64((i as f64 * 0.2).cos(), (i as f64 * 0.11).sin()))
            .collect();
        let mut y = vec![c64(9.0, 9.0); n]; // poisoned: must be overwritten
        a.matvec_into(&x, &mut y);
        assert_eq!(y, a.matvec(&x));
    }

    #[test]
    fn optimised_factor_matches_reference() {
        for &(n, kl, ku) in &[(10usize, 2usize, 2usize), (30, 5, 3), (45, 8, 8)] {
            let a = random_banded(n, kl, ku, (n + kl * ku) as u64);
            let fast = a.clone().factor().unwrap();
            let slow = reference::factor(a.clone()).unwrap();
            let b: Vec<_> = (0..n)
                .map(|i| c64((i as f64).sin(), 0.2 * i as f64))
                .collect();
            let xf = fast.solve_vec(&b);
            let mut xs = b.clone();
            reference::solve(&slow, &mut xs);
            for (p, q) in xf.iter().zip(&xs) {
                assert!((*p - *q).abs() < 1e-10, "n={n} kl={kl} ku={ku}");
            }
        }
    }

    /// A random band matrix without a dominant diagonal, so the
    /// factorisation pivots.
    fn pivoting_banded(n: usize, kl: usize, ku: usize, seed: u64) -> BandedMatrix {
        let mut a = random_banded(n, kl, ku, seed);
        for i in 0..n {
            a.add(i, i, -c64(3.0 + (kl + ku) as f64, 1.0));
        }
        a
    }

    /// Assembly closure for [`BandedLu::refactor`] copying `src`'s
    /// columns from the start column on.
    fn columns_of(src: &BandedMatrix) -> impl FnOnce(&mut BandedMatrix, usize) + '_ {
        move |a, start| {
            for j in start..src.n {
                for i in j.saturating_sub(src.ku)..=(j + src.kl).min(src.n - 1) {
                    a.set(i, j, src.get(i, j));
                }
            }
        }
    }

    #[test]
    fn resumed_refactor_is_bit_identical_to_a_fresh_factor() {
        for &(n, kl, ku, seed) in &[
            (600usize, 12usize, 12usize, 1u64),
            (97, 3, 5, 2),
            (64, 7, 1, 3),
        ] {
            let kv = kl + ku;
            let mut saw_pivot_past_start = false;
            for start in [0, 1, kv - 1, kv, kv + 1, n / 2, n - 1, n] {
                let mut old = pivoting_banded(n, kl, ku, seed);
                if start > 0 && start < n {
                    // Make the last kept step pivot on row `start`.
                    old.set(start, start - 1, c64(100.0, -50.0));
                }
                // The new matrix keeps the columns before `start` and
                // redraws every entry from `start` on.
                let redraw = pivoting_banded(n, kl, ku, seed + 100);
                let mut new = old.clone();
                for j in start..n {
                    for i in j.saturating_sub(ku)..=(j + kl).min(n - 1) {
                        new.set(i, j, redraw.get(i, j));
                    }
                }
                let mut lu = BandedLu::placeholder();
                assert_eq!(lu.refactor(n, kl, ku, start, columns_of(&old)), Ok(0));
                let (_, kept_pivots) = lu.raw_parts();
                saw_pivot_past_start |=
                    (start.saturating_sub(kv)..start).any(|j| kept_pivots[j] >= start);
                assert_eq!(lu.refactor(n, kl, ku, start, columns_of(&new)), Ok(start));
                let fresh = new.clone().factor().unwrap();
                let (ab, ipiv) = lu.raw_parts();
                let (fresh_ab, fresh_ipiv) = fresh.raw_parts();
                assert_eq!(
                    ipiv, fresh_ipiv,
                    "pivots n={n} kl={kl} ku={ku} start={start}"
                );
                let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
                    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
                };
                assert!(
                    bits(ab) == bits(fresh_ab),
                    "factor storage n={n} kl={kl} ku={ku} start={start}"
                );
            }
            assert!(saw_pivot_past_start, "no kept step pivoted past start");
        }
    }

    #[test]
    fn refactor_after_a_singular_tail_starts_at_column_zero() {
        let (n, kl, ku) = (120, 4, 6);
        let good = pivoting_banded(n, kl, ku, 9);
        let mut singular = good.clone();
        for i in (n - 1 - ku)..n {
            singular.set(i, n - 1, Complex64::ZERO);
        }
        let mut lu = BandedLu::placeholder();
        // A shape change keeps nothing: the first refactor starts at 0.
        assert_eq!(lu.refactor(n, kl, ku, n / 2, columns_of(&good)), Ok(0));
        let err = lu.refactor(n, kl, ku, n / 2, columns_of(&singular));
        assert_eq!(err, Err(SingularMatrixError { column: n - 1 }));
        assert_eq!(lu.refactor(n, kl, ku, n / 2, columns_of(&good)), Ok(0));
        let fresh = good.factor().unwrap();
        assert_eq!(lu.raw_parts().1, fresh.raw_parts().1);
        assert!(lu.raw_parts().0 == fresh.raw_parts().0);
        // An unchanged matrix keeps the factor as it is.
        assert_eq!(lu.refactor(n, kl, ku, n, |_, _| unreachable!()), Ok(n));
    }

    /// One `BandedLu` slot refactored across shape changes: a shape
    /// change keeps no column, and refilling the first shape again
    /// solves bit-identically to the first factor.
    #[test]
    fn refactor_across_shapes_keeps_solutions_correct() {
        let a = random_banded(16, 2, 3, 9);
        let b: Vec<_> = (0..16).map(|i| c64(1.0 + i as f64, 0.0)).collect();
        let mut lu = BandedLu::placeholder();
        assert_eq!(lu.refactor(16, 2, 3, 0, columns_of(&a)), Ok(0));
        let x1 = lu.solve_vec(&b);
        assert!(residual(&a, &x1, &b) < 1e-12);
        // A diagonal system of another shape.
        let diag = |m: &mut BandedMatrix, start: usize| {
            for i in start..8 {
                m.set(i, i, c64(2.0, 0.0));
            }
        };
        assert_eq!(lu.refactor(8, 1, 1, 8, diag), Ok(0));
        for v in lu.solve_vec(&[Complex64::ONE; 8]) {
            assert_eq!(v, c64(0.5, 0.0));
        }
        assert_eq!(lu.refactor(16, 2, 3, 16, columns_of(&a)), Ok(0));
        assert_eq!(lu.solve_vec(&b), x1);
    }

    /// A random complex-symmetric band matrix (`kl = ku = m`), entries
    /// in `[−½, ½)²`, with the diagonal shifted by `shift`.
    fn random_symmetric(n: usize, m: usize, seed: u64, shift: Complex64) -> BandedMatrix {
        let mut r = random_banded(n, m, m, seed);
        for i in 0..n {
            r.add(i, i, -c64(3.0 + (2 * m) as f64, 1.0));
        }
        let mut a = BandedMatrix::new(n, m, m);
        for j in 0..n {
            for i in j..=(j + m).min(n - 1) {
                let v = if i == j {
                    r.get(i, j) + shift
                } else {
                    r.get(i, j)
                };
                a.set(i, j, v);
                a.set(j, i, v);
            }
        }
        a
    }

    /// Assembly closure for [`BandedLdl::refactor`] copying the lower
    /// triangle of `src`'s columns from the start column on.
    fn lower_of(src: &BandedMatrix) -> impl FnOnce(&mut BandedLdl, usize) + '_ {
        move |a, start| {
            for j in start..src.n {
                for i in j..=(j + src.kl).min(src.n - 1) {
                    a.set(i, j, src.get(i, j));
                }
            }
        }
    }

    fn ldl_solve(ldl: &BandedLdl, b: &[Complex64]) -> Vec<Complex64> {
        let mut x = b.to_vec();
        ldl.solve_many(&mut x, 1);
        x
    }

    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// LDLᵀ solves of random complex-symmetric bands agree with the
    /// pivoted LU's within a bound derived from both backward errors.
    ///
    /// Derivation. The LDLᵀ solve is backward stable relative to its
    /// factors (Higham, *Accuracy and Stability of Numerical
    /// Algorithms*, Thms. 9.3–9.4 and 10.4 with `U = D·Lᵀ`): the computed
    /// `x` solves `(A + ΔA)·x = b` with `|ΔA| ≤ γ_{3w}·|L||D||Lᵀ|`,
    /// `γ_k = k·u/(1 − k·u)`, `w = m + 1` the most terms of any inner
    /// product, so its residual obeys `|b − A·x| ≤ γ_{3w}·|L||D||Lᵀ|·|x|`,
    /// evaluated here from the computed factor. The pivoted LU's obeys
    /// `‖b − A·x‖∞ ≤ γ_{3w'}·(m + 1)·w'·max|u_ij|·‖x‖∞` (`|l_ij| ≤ 1`,
    /// `m + 1` entries per row of `L`, `w' = 3m + 1` per row of `U`). The
    /// two solutions differ by `A⁻¹` times the difference of their
    /// residuals, so
    /// `‖x₁ − x₂‖∞ ≤ ‖A⁻¹‖∞·(‖r₁‖∞ + ‖r₂‖∞)`; `‖A⁻¹‖∞` comes from LU
    /// solves of the unit vectors, and a factor 2 covers the second-order
    /// terms and the computed inverse.
    #[test]
    fn ldl_solves_agree_with_the_lu_within_the_backward_error_bound() {
        let u = f64::EPSILON / 2.0;
        let gamma = |k: usize| k as f64 * u / (1.0 - k as f64 * u);
        for &(n, m, seed) in &[(12usize, 2usize, 1u64), (40, 5, 2), (64, 8, 3), (90, 12, 4)] {
            // A weakly shifted diagonal: the LU pivots, the LDLᵀ grows.
            let a = random_symmetric(n, m, seed, c64(0.5, 0.25));
            assert!(a.asymmetry() == 0.0);
            let lu = a.clone().factor().unwrap();
            assert!(
                lu.ipiv.iter().enumerate().any(|(j, &p)| p != j),
                "n={n}: the LU must pivot"
            );
            let mut ldl = BandedLdl::placeholder();
            assert_eq!(ldl.refactor(n, m, 0, lower_of(&a)), Ok(0));
            let b: Vec<_> = (0..n)
                .map(|i| c64((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
                .collect();
            let x_ldl = ldl_solve(&ldl, &b);
            let x_lu = lu.solve_vec(&b);

            // Componentwise |L||D||Lᵀ|·|x| from the factor.
            let ld = m + 1;
            let l = |i: usize, k: usize| -> f64 {
                match i.checked_sub(k) {
                    Some(0) => 1.0,
                    Some(r) if r <= m => ldl.ab[k * ld + r].abs(),
                    _ => 0.0,
                }
            };
            let dlt_x: Vec<f64> = (0..n)
                .map(|k| {
                    let s: f64 = (k..=(k + m).min(n - 1))
                        .map(|j| l(j, k) * x_ldl[j].abs())
                        .sum();
                    ldl.ab[k * ld].abs() * s
                })
                .collect();
            let ldlt_x: Vec<f64> = (0..n)
                .map(|i| (i.saturating_sub(m)..=i).map(|k| l(i, k) * dlt_x[k]).sum())
                .collect();
            let inf = |v: &[Complex64]| v.iter().fold(0.0f64, |m, z| m.max(z.abs()));
            let r_ldl = gamma(3 * ld) * ldlt_x.iter().fold(0.0f64, |m, v| m.max(*v));
            let w = 3 * m + 1;
            let r_lu = gamma(3 * w) * (m + 1) as f64 * w as f64 * lu.max_abs_upper() * inf(&x_lu);
            let inv_norm = (0..n)
                .map(|i| {
                    let mut e = vec![Complex64::ZERO; n];
                    e[i] = Complex64::ONE;
                    lu.solve_vec(&e)
                })
                .fold(vec![0.0f64; n], |mut rows, col| {
                    for (r, v) in rows.iter_mut().zip(&col) {
                        *r += v.abs();
                    }
                    rows
                })
                .into_iter()
                .fold(0.0f64, f64::max);
            let limit = 2.0 * inv_norm * (r_ldl + r_lu);
            let diff: Vec<Complex64> = x_ldl.iter().zip(&x_lu).map(|(p, q)| *p - *q).collect();
            assert!(
                inf(&diff) <= limit,
                "n={n} m={m}: solutions differ by {:e} > {limit:e}",
                inf(&diff)
            );
            assert!(
                limit < 1e-6 * inf(&x_lu),
                "n={n} m={m}: vacuous bound {limit:e}"
            );
            // Row by row, the LDLᵀ residual stays within its own bound
            // plus the rounding of the residual's evaluation,
            // γ_{2m+1}·|A|·|x|.
            let ax = a.matvec(&x_ldl);
            for i in 0..n {
                let abs_ax: f64 = (i.saturating_sub(m)..=(i + m).min(n - 1))
                    .map(|j| a.get(i, j).abs() * x_ldl[j].abs())
                    .sum();
                let r = (b[i] - ax[i]).abs();
                let tol = gamma(3 * ld) * ldlt_x[i] + gamma(2 * m + 1) * abs_ax;
                assert!(r <= tol, "n={n} m={m} row {i}: residual {r:e} > {tol:e}");
            }
            // The growth term is the largest |l_ik|·|d_k|·|l_jk|.
            let brute = (0..n)
                .flat_map(|k| (k..=(k + m).min(n - 1)).map(move |i| (i, k)))
                .flat_map(|(i, k)| (k..=(k + m).min(n - 1)).map(move |j| (i, j, k)))
                .map(|(i, j, k)| l(i, k) * ldl.ab[k * ld].abs() * l(j, k))
                .fold(0.0f64, f64::max);
            assert_eq!(ldl.max_abs_term(), brute);
        }
    }

    /// Split forward steps plus the back substitution are the solve, bit
    /// for bit; a zero-headed right-hand side may skip the steps before
    /// its first non-zero row; a tail change replays from the state saved
    /// before its first row's step; the trailing back substitution and the
    /// trailing inverse block match whole solves.
    #[test]
    fn partial_ldl_sweeps_match_whole_solves() {
        let (n, m) = (37usize, 5usize);
        let a = random_symmetric(n, m, 91, c64(0.5, 0.25));
        let mut ldl = BandedLdl::placeholder();
        ldl.refactor(n, m, 0, lower_of(&a)).unwrap();
        let b0: Vec<Complex64> = (0..2 * n)
            .map(|k| c64((k as f64 * 0.31).sin(), (k as f64 * 0.17).cos()))
            .collect();
        let mut whole = b0.clone();
        ldl.solve_many(&mut whole, 2);
        let mut split = b0.clone();
        ldl.forward_steps(0, 0..11, &mut split);
        ldl.forward_steps(0, 11..n, &mut split);
        ldl.back_substitute(&mut split);
        assert!(bits(&split) == bits(&whole));

        // Rows before r zero: steps from r on, over the window starting
        // there, give the same forward result.
        let r = 20;
        let mut headless = b0[..n].to_vec();
        headless[..r].fill(Complex64::ZERO);
        let mut full = headless.clone();
        ldl.forward_steps(0, 0..n, &mut full);
        let mut window = headless[r..].to_vec();
        ldl.forward_steps(r, r..n, &mut window);
        assert!(full[..r].iter().all(|z| *z == Complex64::ZERO));
        assert_eq!(&full[r..], &window[..]);

        // A change from row r on: replaying steps r..n on the saved
        // state solves the changed right-hand side to rounding.
        let mut z = b0[..n].to_vec();
        ldl.forward_steps(0, 0..r, &mut z);
        let mut tail = z[r..].to_vec();
        let delta: Vec<Complex64> = (r..n).map(|i| c64(0.1 * i as f64, -0.2)).collect();
        for (t, d) in tail.iter_mut().zip(&delta) {
            *t -= *d;
        }
        ldl.forward_steps(r, r..n, &mut tail);
        z[r..].copy_from_slice(&tail);
        ldl.back_substitute(&mut z);
        let mut changed = b0[..n].to_vec();
        for (c, d) in changed[r..].iter_mut().zip(&delta) {
            *c -= *d;
        }
        let want = ldl_solve(&ldl, &changed);
        for (p, q) in z.iter().zip(&want) {
            assert!((*p - *q).abs() <= 1e-12 * (1.0 + q.abs()));
        }

        // Trailing back substitution = the tail of a whole one.
        let k = 9;
        let mut y = b0[..n].to_vec();
        ldl.forward_steps(0, 0..n, &mut y);
        let mut tail = y[n - k..].to_vec();
        ldl.back_substitute(&mut y);
        ldl.back_substitute_trailing(&mut tail, k);
        assert!(bits(&y[n - k..]) == bits(&tail));

        // Trailing inverse block = the tails of solves against unit
        // vectors (to rounding: the skipped steps reorder nothing, but
        // the whole solve sweeps explicit zeros through the axpys).
        let mut block = vec![Complex64::ZERO; k * k];
        ldl.trailing_inverse_block(k, &mut block);
        let mut units = vec![Complex64::ZERO; k * n];
        for c in 0..k {
            units[c * n + n - k + c] = Complex64::ONE;
        }
        ldl.solve_many(&mut units, k);
        for c in 0..k {
            for (i, v) in units[c * n + n - k..(c + 1) * n].iter().enumerate() {
                assert!((*v - block[c * k + i]).abs() <= 1e-12 * (1.0 + v.abs()));
            }
        }
        assert_eq!(ldl.bytes(), n * (m + 1) * 16);
    }

    /// A refactor resumed at `start` leaves the storage bit-identical to
    /// a fresh factor of the new matrix, without reallocating it.
    #[test]
    fn resumed_ldl_refactor_is_bit_identical_to_a_fresh_factor() {
        for &(n, m, seed) in &[(97usize, 5usize, 1u64), (300, 12, 2), (40, 7, 3)] {
            for start in [0, 1, m, n / 2, n] {
                let old = random_symmetric(n, m, seed, c64(0.5, 0.25));
                // The new matrix keeps every lower entry of the columns
                // before `start` and redraws the trailing block.
                let redraw = random_symmetric(n, m, seed + 100, c64(0.5, 0.25));
                let mut new = old.clone();
                for j in start..n {
                    for i in j..=(j + m).min(n - 1) {
                        new.set(i, j, redraw.get(i, j));
                        new.set(j, i, redraw.get(i, j));
                    }
                }
                let mut ldl = BandedLdl::placeholder();
                assert_eq!(ldl.refactor(n, m, start, lower_of(&old)), Ok(0));
                let ptr = ldl.ab.as_ptr();
                assert_eq!(ldl.refactor(n, m, start, lower_of(&new)), Ok(start));
                assert_eq!(ldl.ab.as_ptr(), ptr, "factor storage reallocated");
                let mut fresh = BandedLdl::placeholder();
                fresh.refactor(n, m, 0, lower_of(&new)).unwrap();
                assert!(
                    bits(&ldl.ab) == bits(&fresh.ab),
                    "factor storage n={n} m={m} start={start}"
                );
            }
        }
    }

    /// An exactly zero pivot stops the LDLᵀ, here at an embedded
    /// `[[0, 1], [1, 0]]` block, which the pivoted LU factors; the failed
    /// storage keeps no column.
    #[test]
    fn zero_pivot_is_singular_for_the_ldl_but_not_the_lu() {
        let (n, m) = (10usize, 2usize);
        let mut a = random_symmetric(n, m, 7, c64(6.0, 1.0));
        // Rows 4 and 5 decouple from the rest and swap each other.
        for i in 4..6usize {
            for k in i.saturating_sub(m)..=(i + m).min(n - 1) {
                a.set(i, k, Complex64::ZERO);
                a.set(k, i, Complex64::ZERO);
            }
        }
        a.set(5, 4, Complex64::ONE);
        a.set(4, 5, Complex64::ONE);
        let mut ldl = BandedLdl::placeholder();
        assert_eq!(
            ldl.refactor(n, m, 0, lower_of(&a)),
            Err(SingularMatrixError { column: 4 })
        );
        assert_eq!(ldl.max_abs_term(), 0.0);
        let lu = a.clone().factor().unwrap();
        let b: Vec<_> = (0..n).map(|i| c64(i as f64, 1.0)).collect();
        assert!(residual(&a, &lu.solve_vec(&b), &b) < 1e-12);
        // The next refactor starts over at column 0.
        let good = random_symmetric(n, m, 8, c64(6.0, 1.0));
        assert_eq!(ldl.refactor(n, m, n / 2, lower_of(&good)), Ok(0));
        assert!(residual(&good, &ldl_solve(&ldl, &b), &b) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside the open lower band")]
    fn ldl_writes_before_the_start_column_panic() {
        let a = random_symmetric(12, 2, 5, c64(6.0, 1.0));
        let mut ldl = BandedLdl::placeholder();
        ldl.refactor(12, 2, 0, lower_of(&a)).unwrap();
        let _ = ldl.refactor(12, 2, 6, |l: &mut BandedLdl, _| l.set(5, 5, Complex64::ONE));
    }

    /// The dispatched factor and solve kernels are bit-identical to the
    /// portable loops (trivially so on a host without AVX).
    #[test]
    fn dispatched_ldl_is_bit_identical_to_the_portable_kernels() {
        use crate::complex::{axpy_neg_scalar, dotu_scalar};
        for &(n, m) in &[(33usize, 4usize), (70, 9), (128, 16)] {
            let a = random_symmetric(n, m, n as u64, c64(0.5, 0.25));
            let mut ldl = BandedLdl::placeholder();
            ldl.refactor(n, m, 0, lower_of(&a)).unwrap();
            let mut portable = BandedLdl {
                n,
                m,
                ab: vec![Complex64::ZERO; (m + 1) * n],
                kept: 0,
                open: 0,
            };
            lower_of(&a)(&mut portable, 0);
            ldl_kernel(n, m, &mut portable.ab, 0, axpy_neg_scalar).unwrap();
            assert!(bits(&ldl.ab) == bits(&portable.ab), "n={n} m={m} factor");
            let b0: Vec<Complex64> = (0..3 * n)
                .map(|k| c64((k as f64 * 0.19).sin(), (k as f64 * 0.41).cos()))
                .collect();
            let mut fast = b0.clone();
            ldl.solve_many(&mut fast, 3);
            let mut slow = b0;
            ldl_sweep(n, m, &ldl.ab, &mut slow, axpy_neg_scalar, dotu_scalar);
            assert!(bits(&fast) == bits(&slow), "n={n} m={m} solve");
        }
    }
}
