//! Design-window condensation of the direct corner factor.
//!
//! A variation corner changes the operator only where the permittivity
//! changes: inside the design window and, through the temperature, in
//! the fixed material around it. Cut the grid at the window's first and
//! last grid rows into a top slab `A`, the window slab `W` and a bottom
//! slab `B`. The 5-point stencil couples `A` and `B` only to `W`'s first
//! and last grid row, so the operator is
//!
//! ```text
//! ⎡ A_AA  A_AW   0   ⎤
//! ⎢ A_WA  A_WW  A_WB ⎥      S = A_WW − A_WA·A_AA⁻¹·A_AW − A_WB·A_BB⁻¹·A_BW
//! ⎣  0    A_BW  A_BB ⎦
//! ```
//!
//! and eliminating both slabs leaves the Schur complement `S` on `W`.
//! `A_WA·A_AA⁻¹·A_AW` is `diag · [A_AA⁻¹]_tail · diag`: a dense `nx×nx`
//! block on `W`'s first grid row, inside `S`'s band. A slab holds no
//! design cell, so everything derived from it depends only on
//! `(grid, ω, side, the slab's diagonal)`: a [`SlabCache`] keeps it across
//! corners, and a corner factors only `S` — `W`'s rows — resuming at its
//! first changed column.
//!
//! Nothing on this path pivots. The slabs and `S` are complex-symmetric
//! like the operator, so each is factored as `L·D·Lᵀ` from its lower
//! triangle ([`boson_num::banded::BandedLdl`], assembled straight into
//! the factor by [`StencilCache::assemble_lower_with_diag`]): `nx + 1`
//! stored entries per column instead of the pivoted LU's `3·nx + 1`,
//! about a quarter of the elimination work, and solve sweeps that read a
//! third of the entries.
//!
//! `B` is factored in reversed row order, so the rows next to `W` come
//! last in both slabs and each interface block is the *trailing* block of
//! a slab inverse ([`boson_num::banded::BandedLdl::trailing_inverse_block`],
//! `O(nx³)`).
//!
//! # What a slab entry holds
//!
//! A slab is factored once, in the cache's one reusable `L·D·Lᵀ` build
//! storage, and an entry keeps its key, its `nx×nx` interface block,
//! and — for the [`WindowTerms`] of its ω, when the build was given them — the
//! condensed data of every fixed right-hand side `f` and output form `w`
//! (a linear functional `w·E`, e.g. a modal monitor):
//!
//! * per right-hand side, `A_WA·A_AA⁻¹·f_A` on the window's adjacent row;
//! * per form, its image `A_AWᵀ·A_AA⁻¹·w_A` on that row, and the scalar
//!   `w_A·A_AA⁻¹·f_A` against its own right-hand side.
//!
//! Each is zero when `f` or `w` does not reach the slab, and the build
//! spends one slab solve on each one that does. An entry keeps the
//! slab's factor too only when full-field solves need it; without it, an
//! entry is its `nx×nx` block plus a few `nx`-vectors.
//!
//! # Two solve kinds
//!
//! * **Full field** ([`crate::sim::SimWorkspace::solve_block`], and the
//!   terms' solves of a corner prepared with slab factors): one
//!   forward and one back sweep per slab factor plus one solve on `S`.
//!   The forward sweeps give the slabs' interface rows, which condense the
//!   window's right-hand side; after the window solve, the slabs' own
//!   right-hand sides change only in their interface rows, so only the
//!   forward steps from the first interface row on are replayed before
//!   each slab's back sweep. Every solve's normwise backward error on the
//!   whole grid is checked against [`WINDOW_BACKWARD_TOL`].
//! * **Window only** ([`crate::sim::SimWorkspace::solve_terms`],
//!   [`crate::sim::SimWorkspace::solve_terms_adjoint`] of a corner
//!   prepared window-only): the field on the
//!   window rows and the readings of the terms' forms, with no slab
//!   sweep. The window's right-hand side is `f_W` minus the slabs'
//!   condensed right-hand sides, and a form reads `w_W·E_W − u_A·E_W −
//!   u_B·E_W + w_A·A_AA⁻¹·f_A + w_B·A_BB⁻¹·f_B` (its images `u` on the
//!   boundary rows). The operator is complex-symmetric, so an adjoint
//!   source `Σ c·w` condenses to `Σ c·(w_W − u_A − u_B)` from the same
//!   images. Every solve is checked on the window rows: the slabs'
//!   interface rows are rebuilt from the condensed data (`A_WA·E_A =
//!   A_WA·A_AA⁻¹·f_A − [A_WA·A_AA⁻¹·A_AW]·E_W`), which makes the window
//!   rows' residual that of `S·E_W = g_W`, and its normwise backward
//!   error is checked against [`WINDOW_BACKWARD_TOL`]. Each slab's own
//!   solves are residual-checked once, when it is built.
//!
//! The slab order of elimination is a static pivoting choice and no
//! factor pivots at all: a failed check, or a zero pivot in a slab or the
//! window, falls back to the plain banded LU.
//!
//! [`solve_reference`] serves one-off whole-grid solves the same way: an
//! `L·D·Lᵀ` of the whole operator, checked, with the pivoted LU to fall
//! back on.

use crate::grid::SimGrid;
use crate::monitor::LinearForm;
use crate::operator::StencilCache;
use boson_num::banded::{BandedLdl, BandedLu, SingularMatrixError, RHS_BLOCK};
use boson_num::Complex64;
use std::sync::{Arc, Weak};

/// Largest normwise backward error `‖A·x − b‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)`
/// a window-factored solve may have; beyond it the corner is re-solved
/// through the plain banded LU. A window-only solve is held to it on
/// the window's condensed system, a slab build on each slab solve, and
/// [`solve_reference`] on the whole grid.
///
/// A backward-stable banded solve stays within a modest multiple of the
/// unit roundoff (`1.1e-16`) times the pivot growth; the window solves of
/// the paper devices measure about `1e-16`. The bound leaves room for a
/// growth of about `10⁶` before it trips, and keeps the solution's
/// residual far below anything a figure of merit resolves.
pub const WINDOW_BACKWARD_TOL: f64 = 1e-10;

/// The fixed slab on one side of the design window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    /// The grid rows before the window, in grid order.
    Top,
    /// The grid rows after the window, in reversed order.
    Bottom,
}

/// A grid's unknowns cut at a design window: `0..lo` is the top slab,
/// `lo..hi` the window, `hi..n` the bottom slab, all whole grid rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Split {
    nx: usize,
    n: usize,
    lo: usize,
    hi: usize,
}

impl Split {
    /// The split of `grid` at the window grid rows `rows`; `None` when a
    /// slab would be empty (a window on the first or last grid row) or the
    /// window has no row — those corners take the plain banded path.
    pub(crate) fn new(grid: &SimGrid, rows: &std::ops::Range<usize>) -> Option<Self> {
        (rows.start > 0 && rows.start < rows.end && rows.end < grid.ny).then_some(Split {
            nx: grid.nx,
            n: grid.n(),
            lo: rows.start * grid.nx,
            hi: rows.end * grid.nx,
        })
    }

    /// The window's unknowns.
    pub(crate) fn window(&self) -> std::ops::Range<usize> {
        self.lo..self.hi
    }

    fn window_len(&self) -> usize {
        self.hi - self.lo
    }

    fn slab_len(&self, side: Side) -> usize {
        match side {
            Side::Top => self.lo,
            Side::Bottom => self.n - self.hi,
        }
    }

    /// The unknowns of `side`'s slab.
    fn slab_rows(&self, side: Side) -> std::ops::Range<usize> {
        match side {
            Side::Top => 0..self.lo,
            Side::Bottom => self.hi..self.n,
        }
    }

    /// Global unknown of `side`'s slab-local index `k`, and back (the
    /// map is its own inverse).
    fn global(&self, side: Side, k: usize) -> usize {
        match side {
            Side::Top => k,
            Side::Bottom => self.n - 1 - k,
        }
    }

    /// The interface of `side`'s slab at window boundary cell `i` (cell
    /// `i` of the window's first row for the top slab, of its last row
    /// for the bottom one): the slab-local index of its neighbour `s`,
    /// the window-local index `b` of the cell, `A(b, s)` and `A(s, b)`.
    /// The two couplings are the same bits: the operator's off-diagonal
    /// part is symmetric exactly.
    fn interface(
        &self,
        side: Side,
        stencil: &StencilCache,
        i: usize,
    ) -> (usize, usize, Complex64, Complex64) {
        let (south, north) = (stencil.south(), stencil.north());
        let (nx, nw) = (self.nx, self.window_len());
        match side {
            Side::Top => (
                self.lo - nx + i,
                i,
                south[self.lo + i],
                north[self.lo - nx + i],
            ),
            Side::Bottom => (
                self.n - self.hi - 1 - i,
                nw - nx + i,
                north[self.hi - nx + i],
                south[self.hi + i],
            ),
        }
    }

    /// Band rows of slab storage the cache may hold per lane: one
    /// factored slab pair, a row per unknown outside the window.
    fn lane_allowance(&self) -> usize {
        self.n - self.window_len()
    }
}

/// The identity of a slab's operator besides its diagonal.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SlabKey {
    grid: SimGrid,
    /// ω's bits.
    omega: u64,
    split: Split,
    side: Side,
}

/// The fixed right-hand sides and output forms of the solves at one
/// `(grid, ω)`: the excitations of a compiled device and the forms its
/// monitors read, the one copy every evaluation at that wavelength solves
/// for — window-only ([`crate::sim::SimWorkspace::solve_terms`] on slabs
/// condensed for them, see the module docs), full-field and iterative
/// alike. Built once per wavelength and shared behind an [`Arc`]: a slab
/// condensed for one is found again only through that same `Arc`.
#[derive(Debug)]
pub struct WindowTerms {
    omega: f64,
    n: usize,
    /// Right-hand sides, column-major `n × excitations`.
    rhs: Vec<Complex64>,
    /// Output forms, each with the right-hand side (column) it reads.
    forms: Vec<(usize, LinearForm)>,
}

impl WindowTerms {
    /// Terms at `omega` on `grid`: `rhs` holds one scaled right-hand side
    /// per excitation (column-major, `grid.n()` each), `forms` the output
    /// forms with the excitation each one reads.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is empty or not whole columns, or a form names an
    /// excitation or an unknown out of range.
    pub fn new(
        grid: &SimGrid,
        omega: f64,
        rhs: Vec<Complex64>,
        forms: Vec<(usize, LinearForm)>,
    ) -> Self {
        let n = grid.n();
        assert!(
            !rhs.is_empty() && rhs.len().is_multiple_of(n),
            "window terms need whole right-hand sides"
        );
        let nexc = rhs.len() / n;
        assert!(
            forms
                .iter()
                .all(|(e, f)| *e < nexc && f.weights.iter().all(|&(k, _)| k < n)),
            "a window form is out of range"
        );
        WindowTerms {
            omega,
            n,
            rhs,
            forms,
        }
    }

    /// The angular frequency the terms belong to.
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// Number of right-hand sides (excitations).
    pub fn excitations(&self) -> usize {
        self.rhs.len() / self.n
    }

    /// Number of output forms.
    pub fn form_count(&self) -> usize {
        self.forms.len()
    }

    /// The right-hand sides, column-major `n × excitations`.
    pub fn rhs(&self) -> &[Complex64] {
        &self.rhs
    }

    /// The output forms with the excitation each one reads.
    pub fn forms(&self) -> &[(usize, LinearForm)] {
        &self.forms
    }

    /// Every form's reading `w·E` of its excitation's column of the
    /// whole-grid solution block `fields` (column-major, `n` per
    /// excitation), in form order, into `amps`.
    ///
    /// # Panics
    ///
    /// Panics if `fields` does not hold a column per excitation.
    pub fn read_into(&self, fields: &[Complex64], amps: &mut Vec<Complex64>) {
        assert_eq!(fields.len(), self.rhs.len(), "one field per excitation");
        let n = self.n;
        amps.clear();
        amps.extend(
            self.forms
                .iter()
                .map(|(e, form)| form.eval(&fields[e * n..(e + 1) * n])),
        );
    }

    /// `true` when excitation `e` has an adjoint source: a non-zero
    /// coefficient (one per form, in form order) on a form reading it.
    pub fn adjoint_active(&self, coef: &[Complex64], e: usize) -> bool {
        self.forms
            .iter()
            .zip(coef)
            .any(|((fe, _), c)| *fe == e && *c != Complex64::ZERO)
    }

    /// Accumulates the adjoint source `Σ_f coef_f·w_f` of every excitation
    /// into its column of the whole-grid block `out` (column-major, `n`
    /// per excitation), form by form in form order, skipping zero
    /// coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `coef` does not hold one coefficient per form or `out`
    /// a column per excitation.
    pub fn accumulate_adjoint(&self, coef: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(coef.len(), self.forms.len(), "one coefficient per form");
        assert_eq!(out.len(), self.rhs.len(), "one column per excitation");
        let n = self.n;
        for ((e, form), &c) in self.forms.iter().zip(coef) {
            if c != Complex64::ZERO {
                form.accumulate(c, &mut out[e * n..(e + 1) * n]);
            }
        }
    }
}

/// One slab's condensed data for a [`WindowTerms`] (see the module docs;
/// each vector holds `nx` entries per item, in window boundary-cell
/// order).
#[derive(Debug)]
struct Condensed {
    terms: Arc<WindowTerms>,
    /// `A_W,slab·slab⁻¹·f_slab` per right-hand side.
    rhs: Vec<Complex64>,
    /// `A_slab,Wᵀ·slab⁻¹·w_slab` per form.
    forms: Vec<Complex64>,
    /// `w_slab·slab⁻¹·f_slab` per form, against its own right-hand side.
    offsets: Vec<Complex64>,
}

/// What a direct corner needs from its slabs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Need<'a> {
    /// Condensed data for these terms (window-only solves).
    pub(crate) terms: Option<&'a Arc<WindowTerms>>,
    /// The slab's `L·D·Lᵀ` (full-field solves).
    pub(crate) factor: bool,
}

/// One fixed slab: its key and diagonal (slab order), its Schur
/// contribution on the adjacent window grid row, and what the build was
/// asked for — condensed data and the slab's factor.
#[derive(Debug)]
pub(crate) struct Slab {
    key: SlabKey,
    diag: Vec<Complex64>,
    /// The slab operator is singular or failed its build check: corners
    /// that need it take the plain banded path.
    unusable: bool,
    /// The slab factor's largest term ([`BandedLdl::max_abs_term`]),
    /// recorded at build.
    growth: f64,
    /// `A_W·[slab⁻¹]_tail·A_slab,W` on the window's adjacent grid row,
    /// `nx×nx` column-major in that row's cell indices.
    schur: Vec<Complex64>,
    /// Row sums of `|schur|`.
    schur_rows: Vec<f64>,
    cond: Option<Condensed>,
    /// The slab's `L·D·Lᵀ` in slab order, kept only for full-field solves.
    factor: Option<BandedLdl>,
}

impl Slab {
    /// `true` when this slab is the one `diag` (the whole grid's) gives
    /// for `key`: equal keys and a bitwise-equal slab diagonal.
    fn matches(&self, key: &SlabKey, diag: &[Complex64]) -> bool {
        self.key == *key
            && self
                .diag
                .iter()
                .enumerate()
                .all(|(k, d)| bits(d) == bits(&diag[key.split.global(key.side, k)]))
    }

    /// `true` when this slab holds what `need` asks for (an unusable slab
    /// answers every need: with a fallback).
    fn serves(&self, need: &Need<'_>) -> bool {
        let terms_ok = need
            .terms
            .is_none_or(|t| self.cond.as_ref().is_some_and(|c| Arc::ptr_eq(&c.terms, t)));
        self.unusable || (terms_ok && (!need.factor || self.factor.is_some()))
    }

    /// Heap bytes of the entry.
    fn bytes(&self) -> usize {
        let c = std::mem::size_of::<Complex64>();
        let cond = self
            .cond
            .as_ref()
            .map_or(0, |d| d.rhs.len() + d.forms.len() + d.offsets.len());
        (self.diag.len() + self.schur.len() + cond) * c
            + self.schur_rows.len() * std::mem::size_of::<f64>()
            + self.factor.as_ref().map_or(0, BandedLdl::bytes)
    }
}

fn bits(z: &Complex64) -> (u64, u64) {
    (z.re.to_bits(), z.im.to_bits())
}

fn max_abs(v: &[Complex64]) -> f64 {
    v.iter().fold(0.0f64, |m, z| m.max(z.abs()))
}

/// The storage and scratch a slab build runs in: one `L·D·Lᵀ` storage,
/// reused from build to build (a build with the same key resumes at the
/// first changed diagonal entry, bit-identical to a fresh factor), and
/// the scratch of the interface block and the build's slab solves.
#[derive(Debug)]
struct SlabBuilder {
    ldl: BandedLdl,
    /// Key of the factor `ldl` holds (`None`: nothing to resume from) …
    record: Option<SlabKey>,
    /// … and its slab diagonal.
    diag: Vec<Complex64>,
    /// The trailing inverse block of the slab being built.
    inv: Vec<Complex64>,
    /// The build's right-hand-side solutions (slab order, per excitation).
    ysol: Vec<Complex64>,
    /// One slab solve: its right-hand side and solution (slab order) …
    b: Vec<Complex64>,
    x: Vec<Complex64>,
    /// … and its residual check's scratch (grid order).
    glob: Vec<Complex64>,
    res: Vec<Complex64>,
}

impl Default for SlabBuilder {
    fn default() -> Self {
        SlabBuilder {
            ldl: BandedLdl::placeholder(),
            record: None,
            diag: Vec::new(),
            inv: Vec::new(),
            ysol: Vec::new(),
            b: Vec::new(),
            x: Vec::new(),
            glob: Vec::new(),
            res: Vec::new(),
        }
    }
}

impl SlabBuilder {
    /// Heap bytes of the builder (its factor storage and scratch).
    fn bytes(&self) -> usize {
        let scratch = [
            &self.diag, &self.inv, &self.ysol, &self.b, &self.x, &self.glob, &self.res,
        ]
        .iter()
        .map(|v| v.capacity())
        .sum::<usize>();
        self.ldl.bytes() + scratch * std::mem::size_of::<Complex64>()
    }

    /// Drops the factor storage (and its record).
    fn release(&mut self) {
        self.ldl = BandedLdl::placeholder();
        self.record = None;
    }

    /// Builds `key`'s slab of the operator with (whole-grid) diagonal
    /// `diag`: factors it, computes its interface block and what `need`
    /// asks for, and residual-checks the build's slab solves. With
    /// `need.factor` the entry takes the factor storage.
    fn build(
        &mut self,
        key: SlabKey,
        stencil: &StencilCache,
        diag: &[Complex64],
        need: Need<'_>,
    ) -> Slab {
        let SlabKey { split, side, .. } = key;
        let (m, nx) = (split.slab_len(side), split.nx);
        let start = if self.record == Some(key) {
            (0..m)
                .position(|k| bits(&self.diag[k]) != bits(&diag[split.global(side, k)]))
                .unwrap_or(m)
        } else {
            0
        };
        self.record = None;
        self.diag.clear();
        self.diag
            .extend((0..m).map(|k| diag[split.global(side, k)]));
        let rows = split.slab_rows(side);
        let reversed = side == Side::Bottom;
        let result = self.ldl.refactor(m, nx, start, |a, s| {
            stencil.assemble_lower_with_diag(diag, rows, reversed, s, a)
        });
        let mut slab = Slab {
            key,
            diag: self.diag.clone(),
            unusable: true,
            growth: 0.0,
            schur: Vec::new(),
            schur_rows: Vec::new(),
            cond: None,
            factor: None,
        };
        if result.is_err() {
            return slab;
        }
        self.record = Some(key);
        slab.growth = self.ldl.max_abs_term();
        self.inv.clear();
        self.inv.resize(nx * nx, Complex64::ZERO);
        self.ldl.trailing_inverse_block(nx, &mut self.inv);
        let (south, north) = (stencil.south(), stencil.north());
        slab.schur = vec![Complex64::ZERO; nx * nx];
        for j in 0..nx {
            for i in 0..nx {
                slab.schur[j * nx + i] = match side {
                    // Window cell i of its first row couples to top-slab
                    // unknown lo − nx + i (trailing index i).
                    Side::Top => {
                        south[split.lo + i] * self.inv[j * nx + i] * north[split.lo - nx + j]
                    }
                    // Window cell i of its last row couples to bottom
                    // unknown hi + i (trailing index nx − 1 − i).
                    Side::Bottom => {
                        let (p, q) = (nx - 1 - i, nx - 1 - j);
                        north[split.hi - nx + i] * self.inv[q * nx + p] * south[split.hi + j]
                    }
                };
            }
        }
        slab.schur_rows = (0..nx)
            .map(|i| (0..nx).map(|j| slab.schur[j * nx + i].abs()).sum())
            .collect();
        slab.unusable = !self.condense(key, stencil, diag, need.terms, &mut slab);
        if !slab.unusable && need.factor {
            slab.factor = Some(std::mem::replace(&mut self.ldl, BandedLdl::placeholder()));
            self.record = None;
        }
        slab
    }

    /// The build's slab solves, each residual-checked: a probe along the
    /// slab's coupling to the window, then the condensed data of `terms`
    /// into `slab`. Returns `false` when a check fails.
    fn condense(
        &mut self,
        key: SlabKey,
        stencil: &StencilCache,
        diag: &[Complex64],
        terms: Option<&Arc<WindowTerms>>,
        slab: &mut Slab,
    ) -> bool {
        let SlabKey { split, side, .. } = key;
        let (m, nx) = (split.slab_len(side), split.nx);
        let rows = split.slab_rows(side);
        let norm = (rows.start..rows.end)
            .map(|g| {
                let inside = |h: usize| rows.contains(&h);
                diag[g].abs()
                    + stencil.west()[g].abs()
                    + stencil.east()[g].abs()
                    + if g >= stencil.nx() && inside(g - stencil.nx()) {
                        stencil.south()[g].abs()
                    } else {
                        0.0
                    }
                    + if inside(g + stencil.nx()) {
                        stencil.north()[g].abs()
                    } else {
                        0.0
                    }
            })
            .fold(0.0f64, f64::max);
        // The probe: the slab's right-hand side of a unit window row.
        self.b.clear();
        self.b.resize(m, Complex64::ZERO);
        for i in 0..nx {
            let (s, _, _, a_sw) = split.interface(side, stencil, i);
            self.b[s] = a_sw;
        }
        if !self.solve_checked(key, stencil, diag, norm) {
            return false;
        }
        let Some(terms) = terms else {
            return true;
        };
        let (nexc, nf) = (terms.excitations(), terms.form_count());
        let mut cond = Condensed {
            terms: Arc::clone(terms),
            rhs: vec![Complex64::ZERO; nexc * nx],
            forms: vec![Complex64::ZERO; nf * nx],
            offsets: vec![Complex64::ZERO; nf],
        };
        self.ysol.clear();
        self.ysol.resize(m * nexc, Complex64::ZERO);
        for (e, f) in terms.rhs().chunks_exact(terms.n).enumerate() {
            self.b.clear();
            self.b.extend((0..m).map(|k| f[split.global(side, k)]));
            if self.b.iter().all(|z| *z == Complex64::ZERO) {
                continue;
            }
            if !self.solve_checked(key, stencil, diag, norm) {
                return false;
            }
            self.ysol[e * m..(e + 1) * m].copy_from_slice(&self.x);
            for i in 0..nx {
                let (s, _, a_ws, _) = split.interface(side, stencil, i);
                cond.rhs[e * nx + i] = a_ws * self.x[s];
            }
        }
        for (fi, (e, form)) in terms.forms().iter().enumerate() {
            let inside = form.weights.iter().filter(|(g, _)| rows.contains(g));
            if inside.clone().next().is_none() {
                continue;
            }
            self.b.clear();
            self.b.resize(m, Complex64::ZERO);
            let y = &self.ysol[e * m..(e + 1) * m];
            let mut offset = Complex64::ZERO;
            for &(g, w) in inside {
                let k = split.global(side, g);
                self.b[k] += w;
                offset += w * y[k];
            }
            cond.offsets[fi] = offset;
            if !self.solve_checked(key, stencil, diag, norm) {
                return false;
            }
            for i in 0..nx {
                let (s, _, _, a_sw) = split.interface(side, stencil, i);
                cond.forms[fi * nx + i] = a_sw * self.x[s];
            }
        }
        slab.cond = Some(cond);
        true
    }

    /// Solves the slab for `b` into `x` and checks its normwise backward
    /// error against [`WINDOW_BACKWARD_TOL`] (`norm` is `‖A_slab‖∞`).
    fn solve_checked(
        &mut self,
        key: SlabKey,
        stencil: &StencilCache,
        diag: &[Complex64],
        norm: f64,
    ) -> bool {
        let SlabKey { split, side, .. } = key;
        let rows = split.slab_rows(side);
        self.x.clear();
        self.x.extend_from_slice(&self.b);
        self.ldl.solve_many(&mut self.x, 1);
        if !self.x.iter().all(|z| z.re.is_finite() && z.im.is_finite()) {
            return false;
        }
        let m = rows.len();
        self.glob.clear();
        self.glob
            .extend((rows.start..rows.end).map(|g| self.x[split.global(side, g)]));
        self.res.clear();
        self.res.resize(m, Complex64::ZERO);
        stencil.apply_block(diag, rows.clone(), &self.glob, &mut self.res);
        let resid = (rows.start..rows.end)
            .zip(&self.res)
            .fold(0.0f64, |r, (g, ax)| {
                r.max((*ax - self.b[split.global(side, g)]).abs())
            });
        resid <= WINDOW_BACKWARD_TOL * (norm * max_abs(&self.x) + max_abs(&self.b))
    }
}

/// The top and bottom slabs a direct corner's window factor condenses,
/// looked up or built in a [`SlabCache`] and handed to the corner (see
/// [`crate::sim::SimWorkspace::slab_pair`]). A slab is immutable behind
/// its `Arc`, so a pair can travel to any lane; while anything besides
/// the cache holds it, the cache keeps it.
#[derive(Debug, Clone)]
pub struct SlabPair {
    top: Arc<Slab>,
    bottom: Arc<Slab>,
}

impl SlabPair {
    /// `true` when both pairs hold the very same slabs (`Arc` identity).
    pub fn ptr_eq(a: &SlabPair, b: &SlabPair) -> bool {
        Arc::ptr_eq(&a.top, &b.top) && Arc::ptr_eq(&a.bottom, &b.bottom)
    }

    /// Neither slab is singular or failed its build check.
    pub(crate) fn usable(&self) -> bool {
        !self.top.unusable && !self.bottom.unusable
    }

    /// `true` when this is the pair `diag` (the whole grid's) gives at
    /// `(grid, ω, split)` and it holds what `need` asks for.
    pub(crate) fn fits(
        &self,
        grid: SimGrid,
        omega: f64,
        split: Split,
        diag: &[Complex64],
        need: &Need<'_>,
    ) -> bool {
        [(&self.top, Side::Top), (&self.bottom, Side::Bottom)]
            .into_iter()
            .all(|(s, side)| s.matches(&slab_key(grid, omega, split, side), diag) && s.serves(need))
    }
}

/// Least-recently-used cache of built slabs.
///
/// Slabs are keyed by `(grid, ω, side, the slab's diagonal)` and
/// compared bitwise, and a build depends on nothing else (its terms are
/// found by `Arc` identity), so a lookup can only return the slab a fresh
/// build would produce: results never depend on the cache's history.
///
/// The cache budgets bytes in `L·D·Lᵀ` band rows of `nx + 1` entries:
/// per lane that holds a direct factor, a row per unknown outside the
/// window — one factored slab pair — plus the rows of the larger slab for
/// builds. Resident bytes count every entry (key, interface block,
/// condensed data, and the factor of an entry that keeps one) and the
/// build scratch — the one reusable factor storage and the interface-block
/// scratch. A build first evicts least-recently-used entries until it fits
/// (an evicted factor becomes the build storage); after every lookup, an
/// over-budget cache drops the build storage first, then
/// least-recently-used entries. An entry is in use while any `Arc` besides
/// the cache's own holds it — a [`SlabPair`] handed to a corner, or the
/// window factor condensed with it — and is never evicted; if the entries
/// in use alone exceed the budget the cache runs over it until they are
/// released. Entries without a factor are small, so the whole working set
/// of a run fits.
///
/// A [`crate::sim::SimWorkspace`] owns one and builds into it on demand;
/// a direct fan-out looks up or builds every column's pair on the
/// caller's workspace, in the one build storage, and hands each column
/// its pair (see [`crate::sim::SimWorkspace::slab_pair`]).
#[derive(Debug, Default)]
pub struct SlabCache {
    /// Resident slabs with their last-use stamps.
    entries: Vec<(Arc<Slab>, u64)>,
    /// The grid and split every resident slab belongs to.
    key: Option<(SimGrid, Split)>,
    clock: u64,
    /// Lanes holding a direct factor (at least 1): the budget multiplier.
    lanes: usize,
    /// The build storage and scratch.
    builder: SlabBuilder,
}

impl SlabCache {
    /// An empty cache for one lane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident slabs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no slab is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of resident slabs that keep their factor.
    pub fn factored_len(&self) -> usize {
        self.entries
            .iter()
            .filter(|(s, _)| s.factor.is_some())
            .count()
    }

    /// Bytes of resident slab entries and build scratch.
    pub fn resident_bytes(&self) -> usize {
        self.entries.iter().map(|(s, _)| s.bytes()).sum::<usize>() + self.builder.bytes()
    }

    /// The byte budget for the current grid and window (0 before the
    /// first slab).
    pub fn budget_bytes(&self) -> usize {
        self.key.map_or(0, |(grid, split)| {
            let build = split.slab_len(Side::Top).max(split.slab_len(Side::Bottom));
            (self.lanes.max(1) * split.lane_allowance() + build) * row_bytes(&grid)
        })
    }

    /// Raises the budget multiplier to `lanes`.
    pub(crate) fn hold_lanes(&mut self, lanes: usize) {
        self.lanes = self.lanes.max(lanes).max(1);
    }

    /// Forgets every slab of another grid or split.
    fn rekey(&mut self, grid: SimGrid, split: Split) {
        if self.key != Some((grid, split)) {
            self.entries.clear();
            self.key = Some((grid, split));
        }
    }

    /// The resident slab `key` of `diag` serving `need`.
    fn lookup(&self, key: &SlabKey, diag: &[Complex64], need: &Need<'_>) -> Option<usize> {
        self.entries
            .iter()
            .position(|(s, _)| s.matches(key, diag) && s.serves(need))
    }

    /// The slab pair `diag` needs, built on a miss, then the cache
    /// trimmed to its budget. The top slab is held while the bottom one
    /// builds, so building one never evicts the other.
    pub(crate) fn ensure(
        &mut self,
        grid: SimGrid,
        omega: f64,
        split: Split,
        stencil: &StencilCache,
        diag: &[Complex64],
        need: Need<'_>,
    ) -> SlabPair {
        self.rekey(grid, split);
        let mut side = |side| {
            let key = slab_key(grid, omega, split, side);
            self.clock += 1;
            if let Some(i) = self.lookup(&key, diag, &need) {
                self.entries[i].1 = self.clock;
                return Arc::clone(&self.entries[i].0);
            }
            self.make_room(entry_bytes(&key), self.storage_bytes(&key));
            let slab = Arc::new(self.builder.build(key, stencil, diag, need));
            self.entries.push((Arc::clone(&slab), self.clock));
            slab
        };
        let pair = SlabPair {
            top: side(Side::Top),
            bottom: side(Side::Bottom),
        };
        self.trim();
        pair
    }

    /// The factor storage a build of `key` allocates: none while the
    /// builder holds storage to reuse.
    fn storage_bytes(&self, key: &SlabKey) -> usize {
        if self.builder.ldl.bytes() == 0 {
            key.split.slab_len(key.side) * row_bytes(&key.grid)
        } else {
            0
        }
    }

    /// Evicts least-recently-used entries no one else holds until `extra`
    /// more bytes of entries fit the budget, and `storage` more while the
    /// builder holds no factor storage (or nothing evictable is left).
    /// With `storage > 0`, an evicted factor becomes the build storage.
    fn make_room(&mut self, extra: usize, storage: usize) {
        let budget = self.budget_bytes();
        let needed = |c: &Self| {
            let build = if c.builder.ldl.bytes() == 0 {
                storage
            } else {
                0
            };
            c.resident_bytes() + extra + build
        };
        while needed(self) > budget {
            let Some(lru) = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, (slab, _))| Arc::strong_count(slab) == 1)
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(i, _)| i)
            else {
                break;
            };
            let (evicted, _) = self.entries.swap_remove(lru);
            if storage > 0 && self.builder.ldl.bytes() == 0 {
                if let Some(ldl) = Arc::into_inner(evicted).and_then(|s| s.factor) {
                    self.builder.ldl = ldl;
                    self.builder.record = None;
                }
            }
        }
    }

    /// Brings an over-budget cache down to its budget: the build storage
    /// goes first, then least-recently-used entries no one else holds.
    fn trim(&mut self) {
        if self.resident_bytes() > self.budget_bytes() {
            self.builder.release();
        }
        self.make_room(0, 0);
    }
}

/// Bytes of `key`'s entry without a factor: its diagonal and interface
/// block.
fn entry_bytes(key: &SlabKey) -> usize {
    let (m, nx) = (key.split.slab_len(key.side), key.split.nx);
    (m + nx * nx) * std::mem::size_of::<Complex64>()
}

/// The condensed data of a slab that has it.
fn cond(slab: &Slab) -> &Condensed {
    slab.cond.as_ref().expect("slab not condensed")
}

fn slab_key(grid: SimGrid, omega: f64, split: Split, side: Side) -> SlabKey {
    SlabKey {
        grid,
        omega: omega.to_bits(),
        split,
        side,
    }
}

/// Bytes of one row of `L·D·Lᵀ` band storage on `grid`: `nx + 1`
/// entries.
fn row_bytes(grid: &SimGrid) -> usize {
    (grid.nx + 1) * std::mem::size_of::<Complex64>()
}

/// Per-solve scratch of a [`WindowFactor`]; grown once, then reused.
#[derive(Debug, Default)]
struct SolveScratch {
    /// Top-slab right-hand sides / solutions, slab order.
    top: Vec<Complex64>,
    /// Bottom-slab right-hand sides / solutions, slab (reversed) order.
    bottom: Vec<Complex64>,
    /// Window right-hand sides / solutions.
    window: Vec<Complex64>,
    /// Top-slab interface rows before the forward steps that read them.
    top_tail: Vec<Complex64>,
    /// Bottom-slab counterpart of `top_tail`.
    bottom_tail: Vec<Complex64>,
    /// Interface rows of the slab solutions (`nx` per column).
    iface: Vec<Complex64>,
    /// Condensed right-hand sides of a window-only solve (its check).
    rhs: Vec<Complex64>,
    /// Excitations of a window-only adjoint solve, in packed order.
    active: Vec<usize>,
}

/// The window part of a direct corner factor: the banded `L·D·Lᵀ` of
/// the Schur complement `S` on the window rows, the slabs it was
/// condensed with, and the record it resumes from.
#[derive(Debug)]
pub(crate) struct WindowFactor {
    ldl: BandedLdl,
    /// `(grid, ω bits, split)` of the couplings the record refers to.
    key: Option<(SimGrid, u64, Split)>,
    /// Window part of the operator diagonal `ldl` factors (empty: none) …
    diag: Vec<Complex64>,
    /// … and the top and bottom slabs whose Schur blocks were subtracted
    /// from it. A slab is immutable behind its `Arc`, and while a `Weak`
    /// lives its allocation cannot be reused, so pointer equality means
    /// the same blocks.
    condensed: Option<(Weak<Slab>, Weak<Slab>)>,
    /// The slabs of the current factor.
    slabs: Option<SlabPair>,
    /// Per window row of `key`'s couplings, the sum of `|a_ij|` over its
    /// couplings inside the window.
    couplings: Vec<f64>,
    /// An upper bound of `‖S‖∞` of the current factor: `|a_ii|`, the
    /// couplings and the interface blocks' row sums.
    s_norm: f64,
    scratch: SolveScratch,
}

impl WindowFactor {
    pub(crate) fn new() -> Self {
        WindowFactor {
            ldl: BandedLdl::placeholder(),
            key: None,
            diag: Vec::new(),
            condensed: None,
            slabs: None,
            couplings: Vec::new(),
            s_norm: 0.0,
            scratch: SolveScratch::default(),
        }
    }

    /// The largest term of the factor products
    /// ([`BandedLdl::max_abs_term`]) over the window factor and its slabs
    /// (recorded when they were built).
    pub(crate) fn max_abs_term(&self) -> f64 {
        let slabs = self
            .slabs
            .as_ref()
            .map_or(0.0, |p| p.top.growth.max(p.bottom.growth));
        self.ldl.max_abs_term().max(slabs)
    }

    /// Drops the current factor's slabs, so a cache eviction can reuse
    /// their storage; the resume record stays.
    pub(crate) fn release_slabs(&mut self) {
        self.slabs = None;
    }

    /// A column of `S` no later than the first that differs from the one
    /// `ldl` factors: the first changed window diagonal entry, column 0 if
    /// the top slab changed (its block sits in the first `nx` columns),
    /// and column `nw − nx` if the bottom slab did (the last `nx`).
    fn resume_column(
        &self,
        split: Split,
        diag: &[Complex64],
        top: &Arc<Slab>,
        bottom: &Arc<Slab>,
    ) -> usize {
        let nw = split.window_len();
        let Some((old_top, old_bottom)) = &self.condensed else {
            return 0;
        };
        if self.diag.len() != nw || old_top.as_ptr() != Arc::as_ptr(top) {
            return 0;
        }
        let start = self
            .diag
            .iter()
            .zip(&diag[split.lo..split.hi])
            .position(|(o, n)| bits(o) != bits(n))
            .unwrap_or(nw);
        if old_bottom.as_ptr() == Arc::as_ptr(bottom) {
            start
        } else {
            start.min(nw - split.nx)
        }
    }

    /// Factors `S` for the operator with diagonal `diag` condensed with
    /// `top` and `bottom` (both usable), resuming at the first column
    /// that differs from the one the storage factors.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if `S` is singular; the record is
    /// then cleared.
    pub(crate) fn factor(
        &mut self,
        grid: SimGrid,
        omega: f64,
        split: Split,
        stencil: &StencilCache,
        diag: &[Complex64],
        slabs: SlabPair,
    ) -> Result<(), SingularMatrixError> {
        let SlabPair { top, bottom } = &slabs;
        debug_assert!(slabs.usable());
        let key = (grid, omega.to_bits(), split);
        let (nw, nx) = (split.window_len(), split.nx);
        if self.key != Some(key) {
            self.diag.clear();
            self.key = Some(key);
            let (west, east, south, north) = (
                stencil.west(),
                stencil.east(),
                stencil.south(),
                stencil.north(),
            );
            self.couplings.clear();
            self.couplings.extend((0..nw).map(|k| {
                let g = split.lo + k;
                west[g].abs()
                    + east[g].abs()
                    + if k >= nx { south[g].abs() } else { 0.0 }
                    + if k + nx < nw { north[g].abs() } else { 0.0 }
            }));
        }
        let start = self.resume_column(split, diag, top, bottom);
        let result = self.ldl.refactor(nw, nx, start, |a, s| {
            assemble_window(stencil, diag, split, &top.schur, &bottom.schur, s, a)
        });
        self.diag.clear();
        if result.is_ok() {
            self.diag.extend_from_slice(&diag[split.lo..split.hi]);
            self.s_norm = (0..nw)
                .map(|k| {
                    let mut row = self.diag[k].abs() + self.couplings[k];
                    if k < nx {
                        row += top.schur_rows[k];
                    }
                    if k >= nw - nx {
                        row += bottom.schur_rows[k - (nw - nx)];
                    }
                    row
                })
                .fold(0.0f64, f64::max);
            self.condensed = Some((Arc::downgrade(top), Arc::downgrade(bottom)));
            self.slabs = Some(slabs);
        } else {
            self.condensed = None;
            self.slabs = None;
        }
        result.map(drop)
    }

    /// Solves `A·X = B` in place for `nrhs` column-major right-hand sides
    /// of the whole grid in `b`, through the slab factors and `S`.
    ///
    /// Per column: forward sweeps on both slabs (`z = L⁻¹·f`), the
    /// trailing back substitution of their interface rows, the condensed
    /// window right-hand side `f_W − A_WA·y_A − A_WB·y_B`, the window
    /// solve, then each slab's right-hand side minus its coupling to the
    /// window solution. That coupling lives in the slab's interface rows,
    /// which no forward step before the first interface row reads, so the
    /// steps from there on are replayed on the interface rows saved before
    /// them, ahead of the slab's one back sweep.
    ///
    /// # Panics
    ///
    /// Panics if no factor is held, a slab keeps no factor, or
    /// `b.len() != n·nrhs`.
    pub(crate) fn solve(
        &mut self,
        stencil: &StencilCache,
        split: Split,
        b: &mut [Complex64],
        nrhs: usize,
    ) {
        assert_eq!(b.len(), split.n * nrhs, "window solve dimension mismatch");
        let SlabPair { top, bottom } = self.slabs.as_ref().expect("window factor not factored");
        let lus = (
            top.factor.as_ref().expect("top slab keeps no factor"),
            bottom.factor.as_ref().expect("bottom slab keeps no factor"),
        );
        for chunk in b.chunks_mut(split.n * RHS_BLOCK) {
            solve_chunk(&self.ldl, lus, stencil, split, &mut self.scratch, chunk);
        }
    }

    /// The current factor's slabs, which must be condensed.
    fn condensed_slabs(&self) -> (Arc<Slab>, Arc<Slab>) {
        let SlabPair { top, bottom } = self.slabs.clone().expect("window factor not factored");
        assert!(
            top.cond.is_some() && bottom.cond.is_some(),
            "window slabs not condensed"
        );
        (top, bottom)
    }

    /// Window-only forward solve of every right-hand side of the slabs'
    /// terms: the window rows of each solution into `fields` (`nw` per
    /// excitation, column-major) and every form's reading into `amps`.
    /// Returns `false` when a column fails its check on the window rows
    /// (the outputs are then meaningless).
    ///
    /// # Panics
    ///
    /// Panics if no factor is held or its slabs are not condensed.
    pub(crate) fn solve_terms(
        &mut self,
        stencil: &StencilCache,
        diag: &[Complex64],
        split: Split,
        fields: &mut Vec<Complex64>,
        amps: &mut Vec<Complex64>,
        resid: &mut Vec<Complex64>,
    ) -> bool {
        let (nx, nw) = (split.nx, split.window_len());
        let (top, bottom) = self.condensed_slabs();
        let (ct, cb) = (cond(&top), cond(&bottom));
        let terms = &ct.terms;
        let nexc = terms.excitations();
        fields.clear();
        for (e, f) in terms.rhs().chunks_exact(split.n).enumerate() {
            fields.extend_from_slice(&f[split.window()]);
            let col = &mut fields[e * nw..];
            for i in 0..nx {
                col[i] -= ct.rhs[e * nx + i];
                col[nw - nx + i] -= cb.rhs[e * nx + i];
            }
        }
        self.scratch.rhs.clear();
        self.scratch.rhs.extend_from_slice(fields);
        self.ldl.solve_many(fields, nexc);
        if !self.check(stencil, diag, split, fields, resid) {
            return false;
        }
        amps.clear();
        amps.extend(terms.forms().iter().enumerate().map(|(fi, (e, form))| {
            let x = &fields[e * nw..(e + 1) * nw];
            let mut a = Complex64::ZERO;
            for &(g, w) in &form.weights {
                if split.window().contains(&g) {
                    a += w * x[g - split.lo];
                }
            }
            for i in 0..nx {
                a -= ct.forms[fi * nx + i] * x[i];
                a -= cb.forms[fi * nx + i] * x[nw - nx + i];
            }
            a + ct.offsets[fi] + cb.offsets[fi]
        }));
        true
    }

    /// Window-only adjoint solve: for every excitation, the window rows of
    /// `A⁻¹·Σ_f coef_f·w_f` over the forms `f` that read it, into
    /// `lambdas` (`nw` per excitation, column-major; exactly zero where
    /// no coefficient is). Returns `false` when a column fails its check.
    ///
    /// # Panics
    ///
    /// Panics if no factor is held, its slabs are not condensed, or
    /// `coef` does not hold one coefficient per form.
    pub(crate) fn solve_terms_adjoint(
        &mut self,
        stencil: &StencilCache,
        diag: &[Complex64],
        split: Split,
        coef: &[Complex64],
        lambdas: &mut Vec<Complex64>,
        resid: &mut Vec<Complex64>,
    ) -> bool {
        let (nx, nw) = (split.nx, split.window_len());
        let (top, bottom) = self.condensed_slabs();
        let (ct, cb) = (cond(&top), cond(&bottom));
        let terms = &ct.terms;
        assert_eq!(coef.len(), terms.form_count(), "one coefficient per form");
        let s = &mut self.scratch;
        s.active.clear();
        s.active
            .extend((0..terms.excitations()).filter(|&e| terms.adjoint_active(coef, e)));
        s.window.clear();
        s.window.resize(s.active.len() * nw, Complex64::ZERO);
        for (fi, (e, form)) in terms.forms().iter().enumerate() {
            let c = coef[fi];
            if c == Complex64::ZERO {
                continue;
            }
            let p = s.active.iter().position(|a| a == e).expect("active");
            let col = &mut s.window[p * nw..(p + 1) * nw];
            for &(g, w) in &form.weights {
                if split.window().contains(&g) {
                    col[g - split.lo] += c * w;
                }
            }
            for i in 0..nx {
                col[i] -= c * ct.forms[fi * nx + i];
                col[nw - nx + i] -= c * cb.forms[fi * nx + i];
            }
        }
        s.rhs.clear();
        s.rhs.extend_from_slice(&s.window);
        let mut packed = std::mem::take(&mut s.window);
        self.ldl.solve_many(&mut packed, self.scratch.active.len());
        let ok = self.check(stencil, diag, split, &packed, resid);
        lambdas.clear();
        lambdas.resize(terms.excitations() * nw, Complex64::ZERO);
        for (p, &e) in self.scratch.active.iter().enumerate() {
            lambdas[e * nw..(e + 1) * nw].copy_from_slice(&packed[p * nw..(p + 1) * nw]);
        }
        self.scratch.window = packed;
        ok
    }

    /// `true` when every column of the window solution block `x` of
    /// `S·X = G` (`G` in the scratch) has normwise backward error
    /// `‖G − S·x‖∞ / (‖S‖∞·‖x‖∞ + ‖g‖∞)` at most [`WINDOW_BACKWARD_TOL`],
    /// `S·x` formed as the window rows of the operator with the slabs'
    /// interface rows rebuilt: `A_WW·x` minus the interface blocks on the
    /// boundary rows. `resid` is scratch.
    fn check(
        &self,
        stencil: &StencilCache,
        diag: &[Complex64],
        split: Split,
        x: &[Complex64],
        resid: &mut Vec<Complex64>,
    ) -> bool {
        let (nx, nw) = (split.nx, split.window_len());
        let SlabPair { top, bottom } = self.slabs.as_ref().expect("window factor not factored");
        resid.clear();
        resid.resize(nw, Complex64::ZERO);
        x.chunks_exact(nw)
            .zip(self.scratch.rhs.chunks_exact(nw))
            .all(|(xc, gc)| {
                if !xc.iter().all(|z| z.re.is_finite() && z.im.is_finite()) {
                    return false;
                }
                stencil.apply_block(diag, split.window(), xc, resid);
                for (r, g) in resid.iter_mut().zip(gc) {
                    *r = *g - *r;
                }
                let b0 = nw - nx;
                for j in 0..nx {
                    let (xt, xb) = (xc[j], xc[b0 + j]);
                    for i in 0..nx {
                        resid[i] += top.schur[j * nx + i] * xt;
                        resid[b0 + i] += bottom.schur[j * nx + i] * xb;
                    }
                }
                // A zero right-hand side solves to exactly zero (0 ≤ 0).
                max_abs(resid) <= WINDOW_BACKWARD_TOL * (self.s_norm * max_abs(xc) + max_abs(gc))
            })
    }
}

/// Writes the lower triangle of columns `start..` of `S`: the window
/// block of the operator, minus the lower halves of the top slab's block
/// on the first window grid row and of the bottom slab's on the last.
fn assemble_window(
    stencil: &StencilCache,
    diag: &[Complex64],
    split: Split,
    top: &[Complex64],
    bottom: &[Complex64],
    start: usize,
    a: &mut BandedLdl,
) {
    let (nw, nx, lo) = (split.window_len(), split.nx, split.lo);
    let (west, south) = (stencil.west(), stencil.south());
    for j in start..nw {
        let g = lo + j;
        a.set(j, j, diag[g]);
        // Below the diagonal, column j holds the couplings of its east
        // neighbour (same grid row) and its north neighbour to it.
        if (g + 1) % nx != 0 {
            a.set(j + 1, j, west[g + 1]);
        }
        if j + nx < nw {
            a.set(j + nx, j, south[g + nx]);
        }
    }
    for j in start..nx {
        for i in j..nx {
            a.add(i, j, -top[j * nx + i]);
        }
    }
    let b0 = nw - nx;
    for j in start.max(b0)..nw {
        for i in j - b0..nx {
            a.add(b0 + i, j, -bottom[(j - b0) * nx + i]);
        }
    }
}

/// [`WindowFactor::solve`] on at most [`RHS_BLOCK`] columns.
fn solve_chunk(
    window: &BandedLdl,
    (top, bottom): (&BandedLdl, &BandedLdl),
    stencil: &StencilCache,
    split: Split,
    scratch: &mut SolveScratch,
    b: &mut [Complex64],
) {
    let Split { nx, n, lo, hi } = split;
    let cols = b.len() / n;
    let (na, nw, nb) = (lo, hi - lo, n - hi);
    let (south, north) = (stencil.south(), stencil.north());
    // First forward step that reads a slab's interface rows.
    let (ja, jb) = (na - nx, nb - nx);
    let s = scratch;
    for (v, len) in [
        (&mut s.top, na),
        (&mut s.bottom, nb),
        (&mut s.window, nw),
        (&mut s.top_tail, nx),
        (&mut s.bottom_tail, nx),
        (&mut s.iface, 2 * nx),
    ] {
        v.clear();
        v.resize(len * cols, Complex64::ZERO);
    }
    for (c, col) in b.chunks_exact(n).enumerate() {
        s.top[c * na..(c + 1) * na].copy_from_slice(&col[..lo]);
        s.window[c * nw..(c + 1) * nw].copy_from_slice(&col[lo..hi]);
        for (dst, src) in s.bottom[c * nb..(c + 1) * nb]
            .iter_mut()
            .zip(col[hi..].iter().rev())
        {
            *dst = *src;
        }
    }
    // Forward sweeps, saving each slab's interface rows before the steps
    // that read them.
    for (ldl, z, tail, j0, m) in [
        (top, &mut s.top, &mut s.top_tail, ja, na),
        (bottom, &mut s.bottom, &mut s.bottom_tail, jb, nb),
    ] {
        ldl.forward_steps(0, 0..j0, z);
        for (t, zc) in tail.chunks_exact_mut(nx).zip(z.chunks_exact(m)) {
            t.copy_from_slice(&zc[j0..]);
        }
        ldl.forward_steps(0, j0..m, z);
    }
    // Interface rows of y = slab⁻¹·f, condensed into the window RHS.
    let (ia, ib) = s.iface.split_at_mut(nx * cols);
    for (c, (ta, tb)) in ia
        .chunks_exact_mut(nx)
        .zip(ib.chunks_exact_mut(nx))
        .enumerate()
    {
        ta.copy_from_slice(&s.top[c * na + ja..(c + 1) * na]);
        tb.copy_from_slice(&s.bottom[c * nb + jb..(c + 1) * nb]);
    }
    top.back_substitute_trailing(ia, nx);
    bottom.back_substitute_trailing(ib, nx);
    for (c, wc) in s.window.chunks_exact_mut(nw).enumerate() {
        let (ta, tb) = (&ia[c * nx..(c + 1) * nx], &ib[c * nx..(c + 1) * nx]);
        for i in 0..nx {
            // Window cell i of the first row: its south neighbour is the
            // top slab's last-row cell i.
            wc[i] -= south[lo + i] * ta[i];
            // Window cell i of the last row: its north neighbour is the
            // bottom slab's first-row cell i, reversed index nb − 1 − i.
            wc[nw - nx + i] -= north[hi - nx + i] * tb[nx - 1 - i];
        }
    }
    window.solve_many(&mut s.window, cols);
    // Each slab's RHS minus its coupling to the window solution, which
    // lives in its interface rows: replay the forward steps from the
    // first interface row on the saved rows, then the back sweep.
    for (c, wc) in s.window.chunks_exact(nw).enumerate() {
        let ta = &mut s.top_tail[c * nx..(c + 1) * nx];
        let tb = &mut s.bottom_tail[c * nx..(c + 1) * nx];
        for j in 0..nx {
            // Top unknown lo − nx + j couples north to window cell j.
            ta[j] -= north[lo - nx + j] * wc[j];
            // Bottom unknown hi + j (reversed nb − 1 − j) couples south
            // to window cell nw − nx + j.
            tb[nx - 1 - j] -= south[hi + j] * wc[nw - nx + j];
        }
    }
    for (ldl, z, tail, j0, m) in [
        (top, &mut s.top, &mut s.top_tail, ja, na),
        (bottom, &mut s.bottom, &mut s.bottom_tail, jb, nb),
    ] {
        ldl.forward_steps(j0, j0..m, tail);
        for (zc, t) in z.chunks_exact_mut(m).zip(tail.chunks_exact(nx)) {
            zc[j0..].copy_from_slice(t);
        }
        ldl.back_substitute(z);
    }
    for (c, col) in b.chunks_exact_mut(n).enumerate() {
        col[..lo].copy_from_slice(&s.top[c * na..(c + 1) * na]);
        col[lo..hi].copy_from_slice(&s.window[c * nw..(c + 1) * nw]);
        for (dst, src) in col[hi..]
            .iter_mut()
            .rev()
            .zip(&s.bottom[c * nb..(c + 1) * nb])
        {
            *dst = *src;
        }
    }
}

/// `true` when every column of the solution block `x` of `A·X = F` has
/// normwise backward error `‖A·x − f‖∞ / (‖A‖∞·‖x‖∞ + ‖f‖∞)` at most
/// [`WINDOW_BACKWARD_TOL`] — one `O(5n)` stencil apply per column.
/// `a_norm` is `‖A‖∞`; `resid` is scratch.
pub(crate) fn backward_error_ok(
    stencil: &StencilCache,
    diag: &[Complex64],
    a_norm: f64,
    x: &[Complex64],
    f: &[Complex64],
    resid: &mut Vec<Complex64>,
) -> bool {
    let n = stencil.n();
    resid.clear();
    resid.resize(n, Complex64::ZERO);
    let max_abs = |v: &[Complex64]| v.iter().fold(0.0f64, |m, z| m.max(z.abs()));
    x.chunks_exact(n).zip(f.chunks_exact(n)).all(|(xc, fc)| {
        if !xc.iter().all(|z| z.re.is_finite() && z.im.is_finite()) {
            return false;
        }
        stencil.apply(diag, xc, resid);
        for (r, f) in resid.iter_mut().zip(fc) {
            *r -= *f;
        }
        // A zero right-hand side solves to exactly zero (0 ≤ 0); a
        // non-finite right-hand side fails (NaN ≤ NaN is false).
        max_abs(resid) <= WINDOW_BACKWARD_TOL * (a_norm * max_abs(xc) + max_abs(fc))
    })
}

/// The factor [`solve_reference`] solved on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReferenceFactor {
    /// The unpivoted complex-symmetric `L·D·Lᵀ`, whose solves passed the
    /// backward-error check.
    Ldl,
    /// The pivoted banded LU, after a zero `L·D·Lᵀ` pivot or a failed
    /// check.
    PivotedLu,
}

/// Solves `A·X = B` in place for the whole-grid operator of `stencil`
/// with diagonal `diag`, `b` holding whole columns: a one-off direct
/// solve such as a compile-time normalisation reference.
///
/// The operator is factored as `L·D·Lᵀ` from its lower band
/// ([`StencilCache::assemble_lower_with_diag`]), `n·(nx + 1)` entries
/// against the pivoted LU's `n·(3·nx + 1)`, and every column's normwise
/// backward error is checked against [`WINDOW_BACKWARD_TOL`]. On a zero
/// pivot or a failed check the factor is dropped and `b` is solved on the
/// pivoted banded LU instead, bit-identical to
/// [`crate::operator::assemble_banded`]`(..).factor()`.
///
/// # Errors
///
/// Returns [`SingularMatrixError`] if the pivoted LU meets a zero pivot.
///
/// # Panics
///
/// Panics if `diag` does not match the grid or `b` is not whole columns.
pub fn solve_reference(
    stencil: &StencilCache,
    diag: &[Complex64],
    b: &mut [Complex64],
) -> Result<ReferenceFactor, SingularMatrixError> {
    let (n, nx) = (stencil.n(), stencil.nx());
    assert!(
        !b.is_empty() && b.len().is_multiple_of(n),
        "reference solve needs whole columns"
    );
    let nrhs = b.len() / n;
    let mut ldl = BandedLdl::placeholder();
    let assembled = ldl.refactor(n, nx, 0, |a, s| {
        stencil.assemble_lower_with_diag(diag, 0..n, false, s, a)
    });
    if assembled.is_ok() {
        let mut x = b.to_vec();
        ldl.solve_many(&mut x, nrhs);
        if backward_error_ok(
            stencil,
            diag,
            stencil.norm_inf(diag),
            &x,
            b,
            &mut Vec::new(),
        ) {
            b.copy_from_slice(&x);
            return Ok(ReferenceFactor::Ldl);
        }
    }
    // Free the L·D·Lᵀ before the LU's three times larger band is allocated.
    drop(ldl);
    let mut lu = BandedLu::placeholder();
    lu.refactor(n, nx, nx, 0, |a, s| {
        stencil.assemble_block_with_diag(diag, 0..n, false, s, a)
    })?;
    lu.solve_many(b, nrhs);
    Ok(ReferenceFactor::PivotedLu)
}
