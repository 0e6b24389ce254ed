//! Assembly of the symmetrised FDFD Helmholtz operator.
//!
//! For 2-D TM polarisation (out-of-plane `Ez`) with stretched-coordinate
//! PML the frequency-domain wave equation is
//!
//! ```text
//! (1/sx)∂x[(1/sx)∂x Ez] + (1/sy)∂y[(1/sy)∂y Ez] + k0² ε Ez = -i k0 Jz
//! ```
//!
//! Multiplying each row by `sx(i)·sy(j)` yields a **complex-symmetric**
//! matrix (the s-factor of the row's own axis cancels, the other axis'
//! factor is constant across the stencil), so the adjoint system `Aᵀλ = g`
//! shares the forward factorisation. The assembled row for cell `(i,j)` is
//!
//! ```text
//! sy_j/dx² [ (E_{i+1,j}-E_{i,j})/sx_{i+½} - (E_{i,j}-E_{i-1,j})/sx_{i-½} ]
//! + sx_i/dx² [ ... y-terms ... ] + k0² ε_{ij} sx_i sy_j E_{ij}
//! = -i k0 sx_i sy_j Jz_{ij}
//! ```
//!
//! Dirichlet (`Ez = 0`) closes the outer boundary; fields there have
//! already been absorbed by the PML.

use crate::grid::SimGrid;
use crate::pml::SFactors;
use boson_num::banded::{BandedLdl, BandedMatrix};
use boson_num::complex::{vmul, vmul_add};
use boson_num::{Array2, Complex64};

/// All coefficients of one assembled stencil row.
#[derive(Debug, Clone, Copy)]
struct StencilRow {
    center: Complex64,
    west: Complex64,
    east: Complex64,
    south: Complex64,
    north: Complex64,
}

/// The ε-independent pieces of one stencil row: the neighbour couplings,
/// the Dirichlet-consistent diagonal contribution `center0 = -(Σ full
/// couplings)`, and the row scaling `sxy = sx·sy` that multiplies the
/// `k₀²·ε` term. Shared by the direct per-row assembly and the
/// [`StencilCache`] so both produce bit-identical coefficients.
#[derive(Debug, Clone, Copy)]
struct StencilParts {
    center0: Complex64,
    west: Complex64,
    east: Complex64,
    south: Complex64,
    north: Complex64,
    sxy: Complex64,
}

fn stencil_parts(grid: &SimGrid, s: &SFactors, ix: usize, iy: usize) -> StencilParts {
    let inv_dx2 = 1.0 / (grid.dx * grid.dx);
    let sy = s.sy_int(iy);
    let sx = s.sx_int(ix);
    // x-neighbour couplings (scaled by sy).
    let cxe = if ix + 1 < grid.nx {
        sy * s.sx_half(ix).inv() * inv_dx2
    } else {
        Complex64::ZERO
    };
    let cxw = if ix > 0 {
        sy * s.sx_half(ix - 1).inv() * inv_dx2
    } else {
        Complex64::ZERO
    };
    // y-neighbour couplings (scaled by sx).
    let cyn = if iy + 1 < grid.ny {
        sx * s.sy_half(iy).inv() * inv_dx2
    } else {
        Complex64::ZERO
    };
    let cys = if iy > 0 {
        sx * s.sy_half(iy - 1).inv() * inv_dx2
    } else {
        Complex64::ZERO
    };
    // At the Dirichlet boundary the missing neighbour contributes zero but
    // the diagonal keeps the full stencil weight for consistency.
    let full_cxe = sy * s.sx_half(ix.min(grid.nx - 2)).inv() * inv_dx2;
    let full_cxw = sy * s.sx_half(ix.saturating_sub(1)).inv() * inv_dx2;
    let full_cyn = sx * s.sy_half(iy.min(grid.ny - 2)).inv() * inv_dx2;
    let full_cys = sx * s.sy_half(iy.saturating_sub(1)).inv() * inv_dx2;
    StencilParts {
        center0: -(full_cxe + full_cxw + full_cyn + full_cys),
        west: cxw,
        east: cxe,
        south: cys,
        north: cyn,
        sxy: sx * sy,
    }
}

fn stencil_row(
    grid: &SimGrid,
    s: &SFactors,
    eps: &Array2<f64>,
    omega: f64,
    ix: usize,
    iy: usize,
) -> StencilRow {
    let parts = stencil_parts(grid, s, ix, iy);
    let k2 = omega * omega;
    StencilRow {
        center: parts.center0 + parts.sxy * (k2 * eps[(iy, ix)]),
        west: parts.west,
        east: parts.east,
        south: parts.south,
        north: parts.north,
    }
}

/// Assembles the symmetrised Helmholtz operator as a banded matrix with
/// `kl = ku = nx` (x-fastest flat ordering), row by row from the stencil.
///
/// Allocates fresh band storage: this is the reference assembly for
/// one-off solves and tests. Corner loops assemble through a
/// [`StencilCache`] instead, straight into the factor's storage.
///
/// # Panics
///
/// Panics if `eps` does not have shape `(ny, nx)`.
pub fn assemble_banded(
    grid: &SimGrid,
    s: &SFactors,
    eps: &Array2<f64>,
    omega: f64,
) -> BandedMatrix {
    assert_eq!(
        eps.shape(),
        (grid.ny, grid.nx),
        "eps shape must be (ny, nx)"
    );
    let mut a = BandedMatrix::new(grid.n(), grid.nx, grid.nx);
    for iy in 0..grid.ny {
        for ix in 0..grid.nx {
            let k = grid.idx(ix, iy);
            let row = stencil_row(grid, s, eps, omega, ix, iy);
            a.set(k, k, row.center);
            if ix > 0 {
                a.set(k, k - 1, row.west);
            }
            if ix + 1 < grid.nx {
                a.set(k, k + 1, row.east);
            }
            if iy > 0 {
                a.set(k, k - grid.nx, row.south);
            }
            if iy + 1 < grid.ny {
                a.set(k, k + grid.nx, row.north);
            }
        }
    }
    a
}

/// Cached ε-independent stencil coefficients for one `(grid, ω)`.
///
/// Assembling the FDFD operator re-derives every PML-stretched neighbour
/// coupling per corner, but only the diagonal `k₀²·ε·sx·sy` term actually
/// varies across the variation corners of an optimisation iteration. This
/// cache stores the couplings (and the ε-independent diagonal part) once
/// per `(grid, ω)` so a corner needs just
///
/// * [`StencilCache::diag_into`] — an `O(n)` rewrite of the diagonal — and
/// * either [`StencilCache::assemble_block_with_diag`] (banded image for
///   a direct factorisation) or [`StencilCache::apply`] (matrix-free
///   `O(5n)` operator application for the preconditioned iterative path).
///
/// Coefficients come from the same `stencil_parts` helper as the per-row
/// assembly, so cache-based assembly is bit-identical to
/// [`assemble_banded`] (asserted in tests).
#[derive(Debug, Clone)]
pub struct StencilCache {
    nx: usize,
    n: usize,
    k2: f64,
    west: Vec<Complex64>,
    east: Vec<Complex64>,
    south: Vec<Complex64>,
    north: Vec<Complex64>,
    /// ε-independent diagonal `-(Σ full couplings)` per cell.
    diag0: Vec<Complex64>,
    /// Row scaling `sx·sy` per cell (multiplies `k₀²·ε`).
    sxy: Vec<Complex64>,
}

impl StencilCache {
    /// Derives the couplings for `(grid, ω)`. Allocates; build once per
    /// geometry and reuse across corners.
    pub fn build(grid: &SimGrid, s: &SFactors, omega: f64) -> Self {
        let n = grid.n();
        let mut cache = Self {
            nx: grid.nx,
            n,
            k2: omega * omega,
            west: vec![Complex64::ZERO; n],
            east: vec![Complex64::ZERO; n],
            south: vec![Complex64::ZERO; n],
            north: vec![Complex64::ZERO; n],
            diag0: vec![Complex64::ZERO; n],
            sxy: vec![Complex64::ZERO; n],
        };
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                let k = grid.idx(ix, iy);
                let parts = stencil_parts(grid, s, ix, iy);
                cache.west[k] = parts.west;
                cache.east[k] = parts.east;
                cache.south[k] = parts.south;
                cache.north[k] = parts.north;
                cache.diag0[k] = parts.center0;
                cache.sxy[k] = parts.sxy;
            }
        }
        cache
    }

    /// Number of unknowns.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Writes the full operator diagonal for `eps` into `diag` (resized
    /// once, then reused): `diag[k] = diag0[k] + sx·sy·(k₀²·ε_k)`.
    ///
    /// # Panics
    ///
    /// Panics if `eps` does not match the cached grid size.
    pub fn diag_into(&self, eps: &Array2<f64>, diag: &mut Vec<Complex64>) {
        assert_eq!(eps.as_slice().len(), self.n, "eps size mismatch");
        diag.clear();
        diag.extend(
            self.diag0
                .iter()
                .zip(&self.sxy)
                .zip(eps.as_slice())
                .map(|((&d0, &sxy), &e)| d0 + sxy * (self.k2 * e)),
        );
    }

    /// Writes columns `start..` of the banded image of the operator's
    /// principal block on the unknowns `rows` (whole grid rows, so the
    /// block keeps the half-width `nx`), with diagonal `diag` (the whole
    /// grid's, as produced by [`StencilCache::diag_into`]). Local unknown
    /// `k` is global `rows.start + k`, or `rows.end − 1 − k` when
    /// `reversed`: the block of the last grid rows in reversed order puts
    /// the rows next to the block above it last.
    ///
    /// Couplings to unknowns outside `rows` are dropped, so the whole
    /// grid, not reversed, is the full operator: the same image as
    /// [`assemble_banded`] bit for bit (the fast-path replacement for it).
    /// Only the stencil entries are written: the rest of those columns
    /// must already be zero, as in a fresh matrix, one this cache
    /// assembled before, or the storage
    /// [`boson_num::banded::BandedLu::refactor`] lends. Columns before
    /// `start` are left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `diag.len()` does not match the cached grid size, `rows`
    /// is not whole grid rows inside it, or `a` is not
    /// `rows.len() × rows.len()` with half-widths `nx`.
    pub fn assemble_block_with_diag(
        &self,
        diag: &[Complex64],
        rows: std::ops::Range<usize>,
        reversed: bool,
        start: usize,
        a: &mut BandedMatrix,
    ) {
        assert_eq!(diag.len(), self.n, "diagonal size mismatch");
        let nx = self.nx;
        assert!(
            rows.start.is_multiple_of(nx)
                && rows.end.is_multiple_of(nx)
                && rows.start < rows.end
                && rows.end <= self.n,
            "block rows must be whole grid rows"
        );
        let m = rows.len();
        assert!(
            a.n() == m && a.kl() == nx && a.ku() == nx,
            "block matrix has the wrong shape"
        );
        let global = |k: usize| {
            if reversed {
                rows.end - 1 - k
            } else {
                rows.start + k
            }
        };
        // Local row k's entries lie in local columns k − nx ..= k + nx.
        for k in start.saturating_sub(nx)..m {
            let g = global(k);
            let ix = g % nx;
            // (local column, coefficient) of each neighbour inside the block.
            let west = (ix > 0).then(|| (g - 1, self.west[g]));
            let east = (ix + 1 < nx).then(|| (g + 1, self.east[g]));
            let south = (g >= rows.start + nx).then(|| (g - nx, self.south[g]));
            let north = (g + nx < rows.end).then(|| (g + nx, self.north[g]));
            if k >= start {
                a.set(k, k, diag[g]);
            }
            for (h, v) in [west, east, south, north].into_iter().flatten() {
                let l = if reversed {
                    rows.end - 1 - h
                } else {
                    h - rows.start
                };
                if l >= start {
                    a.set(k, l, v);
                }
            }
        }
    }

    /// Writes the lower triangle of columns `start..` of the same block
    /// as [`StencilCache::assemble_block_with_diag`] — entry `(l, k)`,
    /// `k ≤ l ≤ k + nx`, bit for bit the entry that writes — into the
    /// storage [`BandedLdl::refactor`] lends to its assembly: the
    /// complex-symmetric operator's `L·D·Lᵀ` needs nothing else.
    ///
    /// # Panics
    ///
    /// Panics if `diag.len()` does not match the cached grid size, `rows`
    /// is not whole grid rows inside it, `a` is not `rows.len()` long, or
    /// `a` is not open for assembly from `start` with half-width `nx`.
    pub fn assemble_lower_with_diag(
        &self,
        diag: &[Complex64],
        rows: std::ops::Range<usize>,
        reversed: bool,
        start: usize,
        a: &mut BandedLdl,
    ) {
        assert_eq!(diag.len(), self.n, "diagonal size mismatch");
        let nx = self.nx;
        assert!(
            rows.start.is_multiple_of(nx)
                && rows.end.is_multiple_of(nx)
                && rows.start < rows.end
                && rows.end <= self.n,
            "block rows must be whole grid rows"
        );
        assert_eq!(a.n(), rows.len(), "block factor has the wrong size");
        let global = |k: usize| {
            if reversed {
                rows.end - 1 - k
            } else {
                rows.start + k
            }
        };
        // The map is its own inverse when reversed.
        let local = |h: usize| {
            if reversed {
                rows.end - 1 - h
            } else {
                h - rows.start
            }
        };
        for k in start..rows.len() {
            let g = global(k);
            a.set(k, k, diag[g]);
            let ix = g % nx;
            // Each neighbour h inside the block, with row h's coupling to
            // g: entry (local h, k) when it lies below the diagonal.
            let west = (ix > 0).then(|| (g - 1, self.east[g - 1]));
            let east = (ix + 1 < nx).then(|| (g + 1, self.west[g + 1]));
            let south = (g >= rows.start + nx).then(|| (g - nx, self.north[g - nx]));
            let north = (g + nx < rows.end).then(|| (g + nx, self.south[g + nx]));
            for (h, v) in [west, east, south, north].into_iter().flatten() {
                let l = local(h);
                if l > k {
                    a.set(l, k, v);
                }
            }
        }
    }

    /// Coupling `A(k, k − 1)` of every unknown (meaningful only off the
    /// first grid column).
    pub(crate) fn west(&self) -> &[Complex64] {
        &self.west
    }

    /// Coupling `A(k, k + 1)` of every unknown (meaningful only off the
    /// last grid column).
    pub(crate) fn east(&self) -> &[Complex64] {
        &self.east
    }

    /// Coupling `A(k, k − nx)` of every unknown (zero on the first grid
    /// row).
    pub(crate) fn south(&self) -> &[Complex64] {
        &self.south
    }

    /// Coupling `A(k, k + nx)` of every unknown (zero on the last grid
    /// row).
    pub(crate) fn north(&self) -> &[Complex64] {
        &self.north
    }

    /// The largest `|a_ij|` of the operator with diagonal `diag`.
    ///
    /// # Panics
    ///
    /// Panics if `diag.len()` does not match the cached grid size.
    pub fn max_abs_entry(&self, diag: &[Complex64]) -> f64 {
        assert_eq!(diag.len(), self.n, "diagonal size mismatch");
        [diag, &self.west, &self.east, &self.south, &self.north]
            .iter()
            .flat_map(|v| v.iter())
            .fold(0.0f64, |m, z| m.max(z.abs()))
    }

    /// `‖A‖∞`, the largest absolute row sum, of the operator with
    /// diagonal `diag`.
    ///
    /// # Panics
    ///
    /// Panics if `diag.len()` does not match the cached grid size.
    pub fn norm_inf(&self, diag: &[Complex64]) -> f64 {
        assert_eq!(diag.len(), self.n, "diagonal size mismatch");
        let mut norm = 0.0f64;
        for (k, d) in diag.iter().enumerate() {
            let row = d.abs()
                + self.west[k].abs()
                + self.east[k].abs()
                + self.south[k].abs()
                + self.north[k].abs();
            norm = norm.max(row);
        }
        norm
    }

    /// Grid extent along the fast axis: the operator's band half-width.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Matrix-free operator application `y = A x` with diagonal `diag`,
    /// in `O(5n)` — the corner operator of the preconditioned iterative
    /// solver.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the cached grid size.
    pub fn apply(&self, diag: &[Complex64], x: &[Complex64], y: &mut [Complex64]) {
        self.apply_block(diag, 0..self.n, x, y);
    }

    /// `y = A_RR·x`: the operator's principal block on the unknowns
    /// `rows` (whole grid rows, in grid order) applied to `x`, with the
    /// whole grid's diagonal `diag`; couplings to unknowns outside `rows`
    /// are dropped. On the whole grid this is [`StencilCache::apply`].
    ///
    /// # Panics
    ///
    /// Panics if `diag` does not match the cached grid size, `rows` is
    /// not whole grid rows inside it, or `x` and `y` are not `rows.len()`
    /// long.
    pub fn apply_block(
        &self,
        diag: &[Complex64],
        rows: std::ops::Range<usize>,
        x: &[Complex64],
        y: &mut [Complex64],
    ) {
        let nx = self.nx;
        assert_eq!(diag.len(), self.n, "diagonal size mismatch");
        assert!(
            rows.start.is_multiple_of(nx)
                && rows.end.is_multiple_of(nx)
                && rows.start < rows.end
                && rows.end <= self.n,
            "block rows must be whole grid rows"
        );
        let (lo, hi, m) = (rows.start, rows.end, rows.len());
        assert_eq!(x.len(), m, "input size mismatch");
        assert_eq!(y.len(), m, "output size mismatch");
        vmul(&diag[lo..hi], x, y);
        // West/east couplings are zero at row boundaries (ix = 0 /
        // ix = nx−1), so the shifted whole-array updates cannot couple
        // across grid rows.
        vmul_add(&self.west[lo + 1..hi], &x[..m - 1], &mut y[1..]);
        vmul_add(&self.east[lo..hi - 1], &x[1..], &mut y[..m - 1]);
        vmul_add(&self.south[lo + nx..hi], &x[..m - nx], &mut y[nx..]);
        vmul_add(&self.north[lo..hi - nx], &x[nx..], &mut y[..m - nx]);
    }
}

/// The right-hand-side scaling applied to a raw current source `Jz`:
/// `b_k = -i·ω·sx(i)·sy(j)·Jz_k` (row scaling of the symmetrised system).
pub fn scale_source(grid: &SimGrid, s: &SFactors, omega: f64, jz: &[Complex64]) -> Vec<Complex64> {
    let mut b = vec![Complex64::ZERO; grid.n()];
    scale_source_into(grid, s, omega, jz, &mut b);
    b
}

/// In-place variant of [`scale_source`]: writes the scaled right-hand side
/// into the caller's buffer (overwriting every entry).
///
/// # Panics
///
/// Panics if `jz.len()` or `b.len()` does not match the grid.
pub fn scale_source_into(
    grid: &SimGrid,
    s: &SFactors,
    omega: f64,
    jz: &[Complex64],
    b: &mut [Complex64],
) {
    assert_eq!(jz.len(), grid.n(), "source length mismatch");
    assert_eq!(b.len(), grid.n(), "rhs length mismatch");
    for iy in 0..grid.ny {
        let row_jz = &jz[iy * grid.nx..(iy + 1) * grid.nx];
        let row_b = &mut b[iy * grid.nx..(iy + 1) * grid.nx];
        for (ix, (dst, &src)) in row_b.iter_mut().zip(row_jz).enumerate() {
            *dst = if src != Complex64::ZERO {
                Complex64::I * (-omega) * s.sxy(ix, iy) * src
            } else {
                Complex64::ZERO
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boson_num::c64;

    fn setup(nx: usize, ny: usize) -> (SimGrid, SFactors, Array2<f64>, f64) {
        let grid = SimGrid::new(nx, ny, 0.05, 8);
        let omega = 2.0 * std::f64::consts::PI / 1.55;
        let s = SFactors::new(&grid, omega);
        let eps = Array2::filled(ny, nx, 1.0);
        (grid, s, eps, omega)
    }

    /// Vacuum, a straight waveguide, and a lossy diagonal shift of the
    /// waveguide operator (the shape of a perturbed corner).
    #[test]
    fn operator_is_complex_symmetric() {
        let (grid, s, vacuum, omega) = setup(30, 26);
        let cy = grid.ny / 2;
        let waveguide = Array2::from_fn(grid.ny, grid.nx, |iy, _| {
            if iy.abs_diff(cy) <= 2 {
                12.11
            } else {
                1.0
            }
        });
        let mut corner = assemble_banded(&grid, &s, &waveguide, omega);
        for i in 0..grid.n() {
            corner.add(i, i, c64(0.0, 25.0));
        }
        for (name, a) in [
            ("vacuum", assemble_banded(&grid, &s, &vacuum, omega)),
            ("waveguide", assemble_banded(&grid, &s, &waveguide, omega)),
            ("lossy corner", corner),
        ] {
            assert!(
                a.asymmetry() < 1e-13,
                "{name}: symmetrised operator asymmetry = {}",
                a.asymmetry()
            );
        }
    }

    #[test]
    fn interior_stencil_matches_helmholtz() {
        // Away from the PML the row must be the plain 5-point Helmholtz
        // stencil: (E_w + E_e + E_s + E_n - 4E_c)/dx² + k0²ε E_c.
        let (grid, s, eps, omega) = setup(30, 30);
        let a = assemble_banded(&grid, &s, &eps, omega);
        let k = grid.idx(15, 15);
        let inv_dx2 = 1.0 / (grid.dx * grid.dx);
        assert!((a.get(k, k + 1) - c64(inv_dx2, 0.0)).abs() < 1e-10);
        assert!((a.get(k, k - 1) - c64(inv_dx2, 0.0)).abs() < 1e-10);
        let expect_c = -4.0 * inv_dx2 + omega * omega;
        assert!((a.get(k, k) - c64(expect_c, 0.0)).abs() < 1e-9);
    }

    #[test]
    fn plane_wave_residual_small_in_interior() {
        // A discrete plane wave with the discrete dispersion relation
        // satisfies the interior equation to machine precision.
        let (grid, s, eps, omega) = setup(40, 40);
        let a = assemble_banded(&grid, &s, &eps, omega);
        // Discrete dispersion: (4/dx²) sin²(β dx/2) = ω² ε  (1-D propagation).
        let beta = (2.0 / grid.dx) * ((omega * grid.dx / 2.0).sin()).asin();
        // Solve actual discrete relation: sin(β dx/2) = ω dx/2 → β as below.
        let beta_d = (2.0 / grid.dx) * (omega * grid.dx / 2.0).asin();
        let _ = beta;
        let x: Vec<Complex64> = (0..grid.n())
            .map(|k| {
                let (ix, _) = grid.coords(k);
                Complex64::cis(beta_d * ix as f64 * grid.dx)
            })
            .collect();
        let y = a.matvec(&x);
        // Check rows well inside the interior and far from y-boundaries
        // (plane wave is constant along y so y-stencil cancels).
        for iy in 18..22 {
            for ix in 15..25 {
                let k = grid.idx(ix, iy);
                assert!(
                    y[k].abs() < 1e-9 / grid.dx / grid.dx * 1e-3,
                    "residual {} at ({ix},{iy})",
                    y[k].abs()
                );
            }
        }
    }

    /// The banded image agrees with a compressed-row (CSR-layout) image of
    /// the same per-row stencil: storage layout and band offsets are right.
    #[test]
    fn banded_and_csr_agree() {
        let (grid, s, mut eps, omega) = setup(25, 22);
        // Non-trivial permittivity.
        for iy in 0..22 {
            for ix in 0..25 {
                eps[(iy, ix)] = 1.0 + 11.0 * ((ix * iy) % 3 == 0) as u8 as f64;
            }
        }
        let ab = assemble_banded(&grid, &s, &eps, omega);
        // Compressed rows: (column, value) entries of every row, in order.
        let mut row_ptr = vec![0usize];
        let mut entries: Vec<(usize, Complex64)> = Vec::new();
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                let k = grid.idx(ix, iy);
                let row = stencil_row(&grid, &s, &eps, omega, ix, iy);
                if iy > 0 {
                    entries.push((k - grid.nx, row.south));
                }
                if ix > 0 {
                    entries.push((k - 1, row.west));
                }
                entries.push((k, row.center));
                if ix + 1 < grid.nx {
                    entries.push((k + 1, row.east));
                }
                if iy + 1 < grid.ny {
                    entries.push((k + grid.nx, row.north));
                }
                row_ptr.push(entries.len());
            }
        }
        let x: Vec<Complex64> = (0..grid.n())
            .map(|k| c64((k as f64 * 0.01).sin(), (k as f64 * 0.03).cos()))
            .collect();
        let yb = ab.matvec(&x);
        let yc: Vec<Complex64> = row_ptr
            .windows(2)
            .map(|w| {
                entries[w[0]..w[1]]
                    .iter()
                    .fold(Complex64::ZERO, |acc, &(j, v)| acc + v * x[j])
            })
            .collect();
        assert_eq!(yc.len(), grid.n());
        for (p, q) in yb.iter().zip(&yc) {
            assert!((*p - *q).abs() < 1e-10);
        }
    }

    /// Every entry of the band of `a` and `b`, bit for bit.
    fn assert_same_band(a: &BandedMatrix, b: &BandedMatrix, nx: usize, what: &str) {
        let n = a.n();
        let bits = |z: Complex64| (z.re.to_bits(), z.im.to_bits());
        for i in 0..n {
            for j in i.saturating_sub(nx)..=(i + nx).min(n - 1) {
                assert_eq!(bits(a.get(i, j)), bits(b.get(i, j)), "{what} ({i},{j})");
            }
        }
    }

    /// Reassembling a used matrix through the stencil cache overwrites
    /// the previous operator entirely.
    #[test]
    fn assemble_into_reuse_matches_fresh_assembly() {
        let (grid, s, eps, omega) = setup(24, 20);
        let (n, nx) = (grid.n(), grid.nx);
        let cache = StencilCache::build(&grid, &s, omega);
        let mut diag = Vec::new();
        cache.diag_into(&eps, &mut diag);
        let mut ws = BandedMatrix::new(n, nx, nx);
        cache.assemble_block_with_diag(&diag, 0..n, false, 0, &mut ws);
        // Second assembly with a different permittivity must fully
        // overwrite the first.
        let mut eps2 = eps.clone();
        for iy in 0..20 {
            for ix in 0..24 {
                eps2[(iy, ix)] = 1.0 + ((ix + 2 * iy) % 4) as f64;
            }
        }
        cache.diag_into(&eps2, &mut diag);
        cache.assemble_block_with_diag(&diag, 0..n, false, 0, &mut ws);
        let fresh = assemble_banded(&grid, &s, &eps2, omega);
        assert_same_band(&ws, &fresh, nx, "entry");
    }

    /// The whole grid, not reversed, is the full operator bit for bit —
    /// also when a resumed assembly rewrites only the columns from
    /// `start > 0` on.
    #[test]
    fn stencil_cache_assembly_is_bit_identical_to_full_assembly() {
        let (grid, s, mut eps, omega) = setup(26, 24);
        let (n, nx) = (grid.n(), grid.nx);
        for iy in 0..24 {
            for ix in 0..26 {
                eps[(iy, ix)] = 1.0 + 11.11 * (((ix * 7 + iy * 3) % 5) as f64) / 4.0;
            }
        }
        let cache = StencilCache::build(&grid, &s, omega);
        let mut diag = Vec::new();
        cache.diag_into(&eps, &mut diag);
        let mut fast = BandedMatrix::new(n, nx, nx);
        cache.assemble_block_with_diag(&diag, 0..n, false, 0, &mut fast);
        let full = assemble_banded(&grid, &s, &eps, omega);
        assert_same_band(&fast, &full, nx, "entry");
        // Temperature-style corner over the upper half: only ε changes →
        // only the diagonal rewrite is needed, and rewriting the columns
        // from the first changed cell on must again match the full
        // assembly.
        let mut eps2 = eps.clone();
        for iy in 12..24 {
            for ix in 0..26 {
                if eps2[(iy, ix)] > 1.0 {
                    eps2[(iy, ix)] += 0.037;
                }
            }
        }
        let old_diag = diag.clone();
        cache.diag_into(&eps2, &mut diag);
        let start = (0..n).find(|&k| diag[k] != old_diag[k]).unwrap();
        assert!(start >= grid.idx(0, 12));
        cache.assemble_block_with_diag(&diag, 0..n, false, start, &mut fast);
        let full2 = assemble_banded(&grid, &s, &eps2, omega);
        assert_same_band(&fast, &full2, nx, "corner entry");
    }

    /// The lower assembly writes the lower triangle of the block
    /// assembly bit for bit — whole grid, a reversed sub-block, and a
    /// resumed refactor: factors of both solve bit-identically.
    #[test]
    fn lower_assembly_is_the_lower_triangle_of_the_block() {
        let (grid, s, mut eps, omega) = setup(22, 24);
        for iy in 0..24 {
            for ix in 0..22 {
                eps[(iy, ix)] = 1.0 + 11.11 * (((ix * 5 + iy * 3) % 7) as f64) / 6.0;
            }
        }
        let (n, nx) = (grid.n(), grid.nx);
        let cache = StencilCache::build(&grid, &s, omega);
        let mut diag = Vec::new();
        cache.diag_into(&eps, &mut diag);
        let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for (rows, reversed, start) in [
            (0..n, false, 0),
            (0..n, false, 7 * nx + 3),
            (nx * 15..n, true, 0),
            (nx * 3..nx * 11, false, 2 * nx),
        ] {
            let m = rows.len();
            let mut block = BandedMatrix::new(m, nx, nx);
            cache.assemble_block_with_diag(&diag, rows.clone(), reversed, 0, &mut block);
            let copied = |a: &mut BandedLdl, start: usize| {
                for j in start..m {
                    for i in j..=(j + nx).min(m - 1) {
                        a.set(i, j, block.get(i, j));
                    }
                }
            };
            let mut want = BandedLdl::placeholder();
            want.refactor(m, nx, 0, copied).unwrap();
            let mut got = BandedLdl::placeholder();
            got.refactor(m, nx, 0, |a, s| {
                cache.assemble_lower_with_diag(&diag, rows.clone(), reversed, s, a)
            })
            .unwrap();
            got.refactor(m, nx, start, |a, s| {
                cache.assemble_lower_with_diag(&diag, rows.clone(), reversed, s, a)
            })
            .unwrap();
            let b: Vec<Complex64> = (0..m).map(|k| c64((k as f64 * 0.3).sin(), 1.0)).collect();
            let (mut x, mut y) = (b.clone(), b);
            want.solve_many(&mut x, 1);
            got.solve_many(&mut y, 1);
            assert!(bits(&x) == bits(&y), "rows {rows:?} reversed {reversed}");
        }
    }

    #[test]
    fn stencil_apply_matches_assembled_matvec() {
        let (grid, s, mut eps, omega) = setup(22, 20);
        for iy in 0..20 {
            for ix in 0..22 {
                eps[(iy, ix)] = 1.0 + ((ix + iy) % 3) as f64 * 4.0;
            }
        }
        let cache = StencilCache::build(&grid, &s, omega);
        let mut diag = Vec::new();
        cache.diag_into(&eps, &mut diag);
        let a = assemble_banded(&grid, &s, &eps, omega);
        let x: Vec<Complex64> = (0..grid.n())
            .map(|k| c64((k as f64 * 0.017).sin(), (k as f64 * 0.029).cos()))
            .collect();
        let dense = a.matvec(&x);
        let mut fast = vec![c64(7.0, -7.0); grid.n()]; // poisoned
        cache.apply(&diag, &x, &mut fast);
        let scale: f64 = dense.iter().map(|v| v.abs()).fold(0.0, f64::max);
        for (k, (p, q)) in fast.iter().zip(&dense).enumerate() {
            assert!((*p - *q).abs() < 1e-12 * scale, "cell {k}: {p:?} vs {q:?}");
        }
    }

    #[test]
    fn scale_source_into_overwrites_stale_buffer() {
        let (grid, s, _eps, omega) = setup(20, 20);
        let mut jz = vec![Complex64::ZERO; grid.n()];
        jz[grid.idx(10, 10)] = c64(1.0, -0.5);
        let fresh = scale_source(&grid, &s, omega, &jz);
        let mut buf = vec![c64(9.0, 9.0); grid.n()]; // poisoned
        scale_source_into(&grid, &s, omega, &jz, &mut buf);
        for (p, q) in buf.iter().zip(&fresh) {
            assert_eq!(*p, *q);
        }
    }

    #[test]
    fn source_scaling_applies_sfactors() {
        let (grid, s, _eps, omega) = setup(25, 25);
        let mut jz = vec![Complex64::ZERO; grid.n()];
        let k_in = grid.idx(12, 12); // interior: sxy = 1
        let k_pml = grid.idx(2, 12); // in PML: sxy != 1
        jz[k_in] = Complex64::ONE;
        jz[k_pml] = Complex64::ONE;
        let b = scale_source(&grid, &s, omega, &jz);
        assert!((b[k_in] - c64(0.0, -omega)).abs() < 1e-12);
        assert!((b[k_pml].abs() - (omega * s.sx_int(2).abs())).abs() < 1e-9);
    }
}
