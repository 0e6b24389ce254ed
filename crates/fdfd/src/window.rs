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
//! design cell, so its banded LU and that block depend only on
//! `(grid, ω, the slab's diagonal)`: a [`SlabCache`] keeps them across
//! corners, and a corner factors only `S` — `W`'s rows — resuming at its
//! first changed column. `S` is complex-symmetric like the operator, so it
//! is factored as `L·D·Lᵀ` from its lower triangle without pivoting
//! ([`boson_num::banded::BandedLdl`]): `nx + 1` stored entries per column
//! instead of the pivoted LU's `3·nx + 1`, and about a quarter of the
//! elimination work.
//!
//! `B` is factored in reversed row order, so the rows next to `W` come
//! last in both slabs and each interface block is the *trailing* block of
//! a slab inverse ([`boson_num::banded::BandedLu::trailing_inverse_block`],
//! `O(nx³)`).
//!
//! A solve makes one forward and one back sweep per slab plus one solve
//! on `S`: the forward sweeps give the slabs' interface rows, which
//! condense the window's right-hand side; after the window solve, the
//! slabs' own right-hand sides change only in their interface rows, so
//! only the forward steps that reach those rows are replayed before each
//! slab's back sweep.
//!
//! The slab order of elimination is a static pivoting choice and the
//! window factor does not pivot at all, so every solve's normwise
//! backward error is checked against [`WINDOW_BACKWARD_TOL`]; a failed
//! check, a singular slab or a zero window pivot falls back to the plain
//! banded LU.

use crate::grid::SimGrid;
use crate::operator::StencilCache;
use boson_num::banded::{BandedLdl, BandedLu, SingularMatrixError, RHS_BLOCK};
use boson_num::Complex64;
use std::sync::{Arc, Weak};

/// Largest normwise backward error `‖A·x − b‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)`
/// a window-factored solve may have; beyond it the corner is re-solved
/// through the plain banded LU.
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

    /// Global unknown of `side`'s slab-local index `k`.
    fn global(&self, side: Side, k: usize) -> usize {
        match side {
            Side::Top => k,
            Side::Bottom => self.n - 1 - k,
        }
    }

    /// Rows of slab storage the cache may hold per lane: the band rows a
    /// plain factor would hold beyond the window factor.
    fn lane_allowance(&self) -> usize {
        self.n - self.window_len()
    }
}

/// One fixed slab: its diagonal (the cache key, in slab order), its
/// banded LU in slab order and its Schur contribution on the adjacent
/// window grid row.
#[derive(Debug)]
pub(crate) struct Slab {
    grid: SimGrid,
    omega: f64,
    split: Split,
    side: Side,
    diag: Vec<Complex64>,
    lu: BandedLu,
    /// The slab operator is singular: corners that need it take the
    /// plain banded path.
    singular: bool,
    /// `A_W·[slab⁻¹]_tail·A_slab,W` on the window's adjacent grid row,
    /// `nx×nx` column-major in that row's cell indices.
    schur: Vec<Complex64>,
}

impl Slab {
    /// The slab operator is singular (no factor).
    pub(crate) fn is_singular(&self) -> bool {
        self.singular
    }

    fn empty(grid: SimGrid, split: Split) -> Self {
        Slab {
            grid,
            omega: f64::NAN,
            split,
            side: Side::Top,
            diag: Vec::new(),
            lu: BandedLu::placeholder(),
            singular: true,
            schur: Vec::new(),
        }
    }

    fn same_operator_family(&self, grid: SimGrid, omega: f64, split: Split, side: Side) -> bool {
        self.grid == grid
            && self.omega.to_bits() == omega.to_bits()
            && self.split == split
            && self.side == side
    }

    /// `true` when this slab is the one `diag` (the whole grid's) gives
    /// at `(grid, ω)`: equal keys and a bitwise-equal slab diagonal.
    fn matches(
        &self,
        grid: SimGrid,
        omega: f64,
        split: Split,
        side: Side,
        diag: &[Complex64],
    ) -> bool {
        self.same_operator_family(grid, omega, split, side)
            && self
                .diag
                .iter()
                .enumerate()
                .all(|(k, d)| bits(d) == bits(&diag[split.global(side, k)]))
    }

    /// Rows of slab factor band storage (the budget's unit; the key and
    /// the interface block are `O(n_slab + nx²)` and not counted).
    fn band_rows(&self) -> usize {
        self.split.slab_len(self.side)
    }

    /// Refactors this slab (storage reused) as `side`'s slab of the
    /// operator with diagonal `diag` and computes its Schur block. When
    /// the storage already holds a factor of the same `(grid, ω, split,
    /// side)`, the factorisation resumes at the first changed diagonal
    /// entry, bit-identical to a fresh one.
    #[allow(clippy::too_many_arguments)] // the slab's key + its operator
    fn rebuild(
        &mut self,
        grid: SimGrid,
        omega: f64,
        split: Split,
        side: Side,
        stencil: &StencilCache,
        diag: &[Complex64],
        work: &mut Vec<Complex64>,
        inv: &mut Vec<Complex64>,
    ) {
        let m = split.slab_len(side);
        let nx = split.nx;
        let start = if self.same_operator_family(grid, omega, split, side) && !self.singular {
            (0..m)
                .position(|k| bits(&self.diag[k]) != bits(&diag[split.global(side, k)]))
                .unwrap_or(m)
        } else {
            0
        };
        self.grid = grid;
        self.omega = omega;
        self.split = split;
        self.side = side;
        self.diag.clear();
        self.diag
            .extend((0..m).map(|k| diag[split.global(side, k)]));
        let rows = split.slab_rows(side);
        let reversed = side == Side::Bottom;
        let result = self.lu.refactor(m, nx, nx, start, |a, s| {
            stencil.assemble_block_with_diag(diag, rows, reversed, s, a)
        });
        self.singular = result.is_err();
        self.schur.clear();
        if self.singular {
            return;
        }
        inv.clear();
        inv.resize(nx * nx, Complex64::ZERO);
        self.lu.trailing_inverse_block(nx, inv, work);
        let (south, north) = (stencil.south(), stencil.north());
        self.schur.resize(nx * nx, Complex64::ZERO);
        for j in 0..nx {
            for i in 0..nx {
                self.schur[j * nx + i] = match side {
                    // Window cell i of its first row couples to top-slab
                    // unknown lo − nx + i (trailing index i).
                    Side::Top => south[split.lo + i] * inv[j * nx + i] * north[split.lo - nx + j],
                    // Window cell i of its last row couples to bottom
                    // unknown hi + i (trailing index nx − 1 − i).
                    Side::Bottom => {
                        let (p, q) = (nx - 1 - i, nx - 1 - j);
                        north[split.hi - nx + i] * inv[q * nx + p] * south[split.hi + j]
                    }
                };
            }
        }
    }
}

fn bits(z: &Complex64) -> (u64, u64) {
    (z.re.to_bits(), z.im.to_bits())
}

/// Least-recently-used cache of factored slabs, shared by every lane of
/// a direct fan-out.
///
/// Slabs are keyed by `(grid, ω, side, the slab's diagonal)` and
/// compared bitwise, so a lookup can only return the slab a fresh build
/// would produce: results never depend on the cache's history. The
/// cache's byte budget is, per lane that holds a direct factor, the band
/// rows a plain `n×(3b+1)` factor holds beyond the window factor; a miss
/// evicts least-recently-used slabs until the new one fits, and reuses an
/// evicted slab's storage when no workspace still holds it. Slabs in use
/// by the current corner or direct fan-out are never evicted; if they
/// alone exceed the budget the cache runs over it until the fan-out ends.
/// The budget counts slab band storage only; each slab's `O(n)` key and
/// `nx×nx` interface block come on top.
///
/// A [`crate::sim::SimWorkspace`] owns one and builds into it on demand;
/// a direct fan-out builds every slab its corners need on the caller's
/// workspace first and lends the cache to every lane read-only (see
/// [`crate::sim::SimWorkspace::take_window_slabs`]).
#[derive(Debug, Default)]
pub struct SlabCache {
    /// Resident slabs with their last-use stamps.
    entries: Vec<(Arc<Slab>, u64)>,
    /// The grid and split every resident slab belongs to.
    key: Option<(SimGrid, Split)>,
    clock: u64,
    /// Lanes holding a direct factor (at least 1): the budget multiplier.
    lanes: usize,
    /// Stamp from which entries are pinned (in use by the current fan-out).
    pinned_from: Option<u64>,
    /// Forward-sweep scratch of the interface-block computation.
    work: Vec<Complex64>,
    /// The trailing inverse block of the slab being built.
    inv: Vec<Complex64>,
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

    /// Bytes of resident slab factor storage (band storage only).
    pub fn resident_bytes(&self) -> usize {
        self.resident_rows() * self.row_bytes()
    }

    /// The byte budget of slab band storage for the current grid and
    /// window (0 before the first slab).
    pub fn budget_bytes(&self) -> usize {
        self.key.map_or(0, |(_, split)| {
            self.lanes.max(1) * split.lane_allowance() * self.row_bytes()
        })
    }

    fn row_bytes(&self) -> usize {
        self.key.map_or(0, |(grid, _)| {
            (3 * grid.nx + 1) * std::mem::size_of::<Complex64>()
        })
    }

    fn resident_rows(&self) -> usize {
        self.entries.iter().map(|(s, _)| s.band_rows()).sum()
    }

    /// Raises the budget multiplier to `lanes`.
    pub(crate) fn hold_lanes(&mut self, lanes: usize) {
        self.lanes = self.lanes.max(lanes).max(1);
    }

    /// Pins everything used from now on until [`SlabCache::unpin`].
    pub(crate) fn pin(&mut self) {
        self.pinned_from = Some(self.clock + 1);
    }

    /// Ends a pin and evicts down to the budget.
    pub(crate) fn unpin(&mut self) {
        self.pinned_from = None;
        self.evict_to_fit(0, u64::MAX);
    }

    /// The slab pair `diag` needs, if resident.
    pub(crate) fn find(
        &self,
        grid: SimGrid,
        omega: f64,
        split: Split,
        diag: &[Complex64],
    ) -> Option<(Arc<Slab>, Arc<Slab>)> {
        let find = |side| {
            self.entries
                .iter()
                .find(|(s, _)| s.matches(grid, omega, split, side, diag))
                .map(|(s, _)| Arc::clone(s))
        };
        Some((find(Side::Top)?, find(Side::Bottom)?))
    }

    /// The slab pair `diag` needs, built on a miss. Both stay pinned for
    /// the rest of the call, so building one never evicts the other.
    pub(crate) fn ensure(
        &mut self,
        grid: SimGrid,
        omega: f64,
        split: Split,
        stencil: &StencilCache,
        diag: &[Complex64],
    ) -> (Arc<Slab>, Arc<Slab>) {
        if self.key != Some((grid, split)) {
            self.entries.clear();
            self.key = Some((grid, split));
        }
        let pin = self.pinned_from.unwrap_or(self.clock + 1);
        let top = self.ensure_side(grid, omega, split, Side::Top, stencil, diag, pin);
        let bottom = self.ensure_side(grid, omega, split, Side::Bottom, stencil, diag, pin);
        (top, bottom)
    }

    #[allow(clippy::too_many_arguments)] // the slab's key + its operator
    fn ensure_side(
        &mut self,
        grid: SimGrid,
        omega: f64,
        split: Split,
        side: Side,
        stencil: &StencilCache,
        diag: &[Complex64],
        pin: u64,
    ) -> Arc<Slab> {
        self.clock += 1;
        let clock = self.clock;
        if let Some((slab, stamp)) = self
            .entries
            .iter_mut()
            .find(|(s, _)| s.matches(grid, omega, split, side, diag))
        {
            *stamp = clock;
            return Arc::clone(slab);
        }
        let reuse = self.evict_to_fit(split.slab_len(side), pin);
        let mut slab = reuse.unwrap_or_else(|| Slab::empty(grid, split));
        slab.rebuild(
            grid,
            omega,
            split,
            side,
            stencil,
            diag,
            &mut self.work,
            &mut self.inv,
        );
        let slab = Arc::new(slab);
        self.entries.push((Arc::clone(&slab), clock));
        slab
    }

    /// Evicts least-recently-used entries stamped before `pin` until
    /// `extra` more rows fit the budget (or nothing evictable is left).
    /// Returns one evicted slab no one else holds, for its storage.
    fn evict_to_fit(&mut self, extra: usize, pin: u64) -> Option<Slab> {
        let (_, split) = self.key?;
        let budget = self.lanes.max(1) * split.lane_allowance();
        let mut reuse = None;
        while self.resident_rows() + extra > budget {
            let Some(lru) = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, (_, stamp))| *stamp < pin)
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(i, _)| i)
            else {
                break;
            };
            let (evicted, _) = self.entries.swap_remove(lru);
            if reuse.is_none() {
                reuse = Arc::try_unwrap(evicted).ok();
            }
        }
        reuse
    }
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
    /// Top-slab forward state before the first step that reaches its
    /// interface rows.
    top_tail: Vec<Complex64>,
    /// Bottom-slab counterpart of `top_tail`.
    bottom_tail: Vec<Complex64>,
    /// Interface rows of the slab solutions (`nx` per column).
    iface: Vec<Complex64>,
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
    slabs: Option<(Arc<Slab>, Arc<Slab>)>,
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
            scratch: SolveScratch::default(),
        }
    }

    /// The largest term of the factor products over the window factor
    /// ([`BandedLdl::max_abs_term`]) and its slabs (whose pivoted
    /// multipliers are at most 1: their largest `|u_ij|`).
    pub(crate) fn max_abs_term(&self) -> f64 {
        let slabs = self
            .slabs
            .as_ref()
            .map_or(0.0, |(t, b)| t.lu.max_abs_upper().max(b.lu.max_abs_upper()));
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
    /// `top` and `bottom` (both non-singular), resuming at the first
    /// column that differs from the one the storage factors.
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
        slabs: (Arc<Slab>, Arc<Slab>),
    ) -> Result<(), SingularMatrixError> {
        let (top, bottom) = &slabs;
        debug_assert!(!top.singular && !bottom.singular);
        let key = (grid, omega.to_bits(), split);
        if self.key != Some(key) {
            self.diag.clear();
            self.key = Some(key);
        }
        let start = self.resume_column(split, diag, top, bottom);
        let (nw, nx) = (split.window_len(), split.nx);
        let result = self.ldl.refactor(nw, nx, start, |a, s| {
            assemble_window(stencil, diag, split, &top.schur, &bottom.schur, s, a)
        });
        self.diag.clear();
        if result.is_ok() {
            self.diag.extend_from_slice(&diag[split.lo..split.hi]);
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
    /// Per column: forward sweeps on both slabs (`z = L⁻¹P·f`), the
    /// trailing back substitution of their interface rows, the condensed
    /// window right-hand side `f_W − A_WA·y_A − A_WB·y_B`, the window
    /// solve, then each slab's right-hand side minus its coupling to the
    /// window solution. That coupling lives in the slab's interface rows,
    /// which only the forward steps from `interface − kl` on reach, so
    /// those steps are replayed on the saved forward state from there
    /// before the slab's one back sweep.
    ///
    /// # Panics
    ///
    /// Panics if no factor is held or `b.len() != n·nrhs`.
    pub(crate) fn solve(
        &mut self,
        stencil: &StencilCache,
        split: Split,
        b: &mut [Complex64],
        nrhs: usize,
    ) {
        assert_eq!(b.len(), split.n * nrhs, "window solve dimension mismatch");
        let (top, bottom) = self.slabs.as_ref().expect("window factor not factored");
        for chunk in b.chunks_mut(split.n * RHS_BLOCK) {
            solve_chunk(
                &self.ldl,
                top,
                bottom,
                stencil,
                split,
                &mut self.scratch,
                chunk,
            );
        }
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
    top: &Slab,
    bottom: &Slab,
    stencil: &StencilCache,
    split: Split,
    scratch: &mut SolveScratch,
    b: &mut [Complex64],
) {
    let Split { nx, n, lo, hi } = split;
    let cols = b.len() / n;
    let (na, nw, nb) = (lo, hi - lo, n - hi);
    let (south, north) = (stencil.south(), stencil.north());
    // First forward step that reaches a slab's interface rows.
    let ja = (na - nx).saturating_sub(nx);
    let jb = (nb - nx).saturating_sub(nx);
    let (ha, hb) = (na - ja, nb - jb);
    let s = scratch;
    for (v, len) in [
        (&mut s.top, na),
        (&mut s.bottom, nb),
        (&mut s.window, nw),
        (&mut s.top_tail, ha),
        (&mut s.bottom_tail, hb),
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
    // Forward sweeps, saving each slab's state before its interface steps.
    for (lu, z, tail, j0, m, h) in [
        (&top.lu, &mut s.top, &mut s.top_tail, ja, na, ha),
        (&bottom.lu, &mut s.bottom, &mut s.bottom_tail, jb, nb, hb),
    ] {
        lu.forward_steps(0, 0..j0, z);
        for (t, zc) in tail.chunks_exact_mut(h).zip(z.chunks_exact(m)) {
            t.copy_from_slice(&zc[j0..]);
        }
        lu.forward_steps(0, j0..m, z);
    }
    // Interface rows of y = slab⁻¹·f, condensed into the window RHS.
    let (ia, ib) = s.iface.split_at_mut(nx * cols);
    for (c, (ta, tb)) in ia
        .chunks_exact_mut(nx)
        .zip(ib.chunks_exact_mut(nx))
        .enumerate()
    {
        ta.copy_from_slice(&s.top[c * na + na - nx..(c + 1) * na]);
        tb.copy_from_slice(&s.bottom[c * nb + nb - nx..(c + 1) * nb]);
    }
    top.lu.back_substitute_trailing(ia, nx);
    bottom.lu.back_substitute_trailing(ib, nx);
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
    // Each slab's RHS minus its coupling to the window solution, replayed
    // through the forward steps that reach it, then the back sweep.
    for (c, wc) in s.window.chunks_exact(nw).enumerate() {
        let ta = &mut s.top_tail[c * ha..(c + 1) * ha];
        let tb = &mut s.bottom_tail[c * hb..(c + 1) * hb];
        for j in 0..nx {
            // Top unknown lo − nx + j couples north to window cell j.
            ta[na - nx + j - ja] -= north[lo - nx + j] * wc[j];
            // Bottom unknown hi + j (reversed nb − 1 − j) couples south
            // to window cell nw − nx + j.
            tb[nb - 1 - j - jb] -= south[hi + j] * wc[nw - nx + j];
        }
    }
    for (lu, z, tail, j0, m, h) in [
        (&top.lu, &mut s.top, &mut s.top_tail, ja, na, ha),
        (&bottom.lu, &mut s.bottom, &mut s.bottom_tail, jb, nb, hb),
    ] {
        lu.forward_steps(j0, j0..m, tail);
        for (zc, t) in z.chunks_exact_mut(m).zip(tail.chunks_exact(h)) {
            zc[j0..].copy_from_slice(t);
        }
        lu.back_substitute(z);
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
