//! The design-window direct factor (`boson_fdfd::window`) against the
//! plain banded LU: agreement on the paper's bend, crossing and isolator
//! operators — whole solves and each fixed slab's unpivoted `L·D·Lᵀ` —,
//! the degenerate windows that must stay plain, cache-history and resume
//! bit-identity, a finite-difference check of the adjoint gradient
//! through the window path, and the whole-grid reference solve with its
//! pivoted-LU fallback.
//!
//! The 80×80 operators take a while to factor in a debug build; CI also
//! runs this file in release (`cargo test --release -p boson-fdfd --test
//! slab_factor`).

use boson_fdfd::grid::{Axis, Sign, SimGrid};
use boson_fdfd::monitor::{LinearForm, ModalMonitor};
use boson_fdfd::operator::{assemble_banded, scale_source_into, StencilCache};
use boson_fdfd::pml::SFactors;
use boson_fdfd::port::Port;
use boson_fdfd::sim::SimWorkspace;
use boson_fdfd::source::ModalSource;
use boson_fdfd::window::{
    solve_reference, ReferenceFactor, SlabPair, WindowTerms, WINDOW_BACKWARD_TOL,
};
use boson_num::banded::{BandedLdl, BandedLu, BandedMatrix};
use boson_num::{Array2, Complex64};
use std::sync::Arc;

/// The paper devices' grid: 80×80 cells of 50 nm with a 10-cell PML.
fn grid() -> SimGrid {
    SimGrid::new(80, 80, 0.05, 10)
}

/// Design-window grid rows of the bend and the crossing.
const WINDOW: std::ops::Range<usize> = 26..54;

/// The isolator's grid (92×80 cells, its design region at
/// `ix ∈ 26..66`, `iy ∈ ISOLATOR_WINDOW`).
fn isolator_grid() -> SimGrid {
    SimGrid::new(92, 80, 0.05, 10)
}

/// Design-window grid rows of the isolator.
const ISOLATOR_WINDOW: std::ops::Range<usize> = 22..58;

const T_NOMINAL: f64 = 300.0;
const T_LO: f64 = 250.0;
const T_HI: f64 = 350.0;

/// Silicon permittivity at temperature `t` (thermo-optic, 1550 nm).
fn eps_si(t: f64) -> f64 {
    let n = 3.48 + 1.8e-4 * (t - T_NOMINAL);
    n * n
}

fn omega(lambda: f64) -> f64 {
    2.0 * std::f64::consts::PI / lambda
}

#[derive(Debug, Clone, Copy)]
enum Device {
    Bend,
    Crossing,
    Isolator,
}

/// The device's permittivity at temperature `t`: its fixed guides (as in
/// `boson_core::problem`) plus a deterministic grey pattern over the
/// design region ((26..54)², the isolator's 26..66 × 22..58), scaled by
/// `pattern`.
fn eps(device: Device, t: f64, pattern: f64) -> Array2<f64> {
    let si = eps_si(t);
    if let Device::Isolator = device {
        // A 1.5 µm multimode guide through the whole domain.
        return Array2::from_fn(80, 92, |iy, ix| {
            let solid = if ISOLATOR_WINDOW.contains(&iy) && (26..66).contains(&ix) {
                let phase = 0.37 * ix as f64 + 0.23 * iy as f64 + pattern;
                0.5 + 0.5 * phase.sin()
            } else {
                f64::from(u8::from((25..55).contains(&iy)))
            };
            1.0 + (si - 1.0) * solid
        });
    }
    Array2::from_fn(80, 80, |iy, ix| {
        let in_window = WINDOW.contains(&iy) && (26..54).contains(&ix);
        let solid = if in_window {
            let phase = 0.37 * ix as f64 + 0.23 * iy as f64 + pattern;
            0.5 + 0.5 * phase.sin()
        } else {
            let horizontal = (36..44).contains(&iy)
                && match device {
                    Device::Bend => ix < 26,
                    _ => !(26..54).contains(&ix),
                };
            let vertical = (36..44).contains(&ix)
                && match device {
                    Device::Bend => iy >= 54,
                    _ => !WINDOW.contains(&iy),
                };
            f64::from(u8::from(horizontal || vertical))
        };
        1.0 + (si - 1.0) * solid
    })
}

/// Two right-hand sides: a line current across the input guide at
/// x = 16, and a dense pseudo-random block.
fn rhs(grid: &SimGrid, omega: f64) -> Vec<Complex64> {
    let n = grid.n();
    let mut jz = vec![Complex64::ZERO; n];
    for iy in 34..46 {
        jz[grid.idx(16, iy)] = Complex64::new(1.0, 0.0);
    }
    let mut b = vec![Complex64::ZERO; 2 * n];
    scale_source_into(grid, &SFactors::new(grid, omega), omega, &jz, &mut b[..n]);
    for (k, v) in b[n..].iter_mut().enumerate() {
        *v = Complex64::new((k as f64 * 0.013).sin(), (k as f64 * 0.029).cos());
    }
    b
}

fn window_workspace() -> SimWorkspace {
    let mut ws = SimWorkspace::new();
    ws.set_window_rows(Some(WINDOW));
    ws
}

/// Factors and solves `b` (whole columns) on `ws` on the grid of `eps`'s
/// shape; returns the solution.
fn solve_on(
    ws: &mut SimWorkspace,
    omega: f64,
    eps: &Array2<f64>,
    b: &[Complex64],
) -> Vec<Complex64> {
    let (ny, nx) = eps.shape();
    let g = SimGrid::new(nx, ny, 0.05, 10);
    ws.factor(g, omega, eps).expect("factorisation failed");
    let mut x = b.to_vec();
    ws.solve_block(&mut x, b.len() / g.n())
        .expect("solve failed");
    x
}

fn inf_norm(v: &[Complex64]) -> f64 {
    v.iter().fold(0.0f64, |m, z| m.max(z.abs()))
}

/// `‖A·x − b‖∞ / (‖A‖∞·‖x‖∞)`, the relative residual of one column.
fn relative_residual(
    stencil: &StencilCache,
    diag: &[Complex64],
    x: &[Complex64],
    b: &[Complex64],
) -> f64 {
    let mut r = vec![Complex64::ZERO; x.len()];
    stencil.apply(diag, x, &mut r);
    let res: Vec<Complex64> = r.iter().zip(b).map(|(r, b)| *r - *b).collect();
    inf_norm(&res) / (stencil.norm_inf(diag) * inf_norm(x))
}

/// Hager's estimate of `‖A⁻¹‖₁` (Higham, *Accuracy and Stability of
/// Numerical Algorithms*, Alg. 15.4, complex form) from the factor. The
/// operator is complex-symmetric, so `‖A⁻¹‖∞ = ‖A⁻¹‖₁` and
/// `A⁻ᴴ·v = conj(A⁻¹·conj(v))`.
fn inverse_norm_estimate(lu: &BandedLu) -> f64 {
    hager(lu.n(), |v| lu.solve_vec(v))
}

/// [`inverse_norm_estimate`] over any solve of an `n×n`
/// complex-symmetric operator.
fn hager(n: usize, solve: impl Fn(&[Complex64]) -> Vec<Complex64>) -> f64 {
    let mut x = vec![Complex64::new(1.0 / n as f64, 0.0); n];
    let mut est = 0.0;
    for _ in 0..5 {
        let y = solve(&x);
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
            .map(|z| Complex64::new(z.re, -z.im))
            .collect();
        let z: Vec<Complex64> = solve(&sign)
            .iter()
            .map(|z| Complex64::new(z.re, -z.im))
            .collect();
        let (j, zmax) =
            z.iter().enumerate().fold(
                (0, 0.0f64),
                |(j, m), (i, v)| if v.abs() > m { (i, v.abs()) } else { (j, m) },
            );
        let ztx: f64 = z
            .iter()
            .zip(&x)
            .map(|(z, x)| (Complex64::new(z.re, -z.im) * *x).re)
            .sum();
        if zmax <= ztx {
            break;
        }
        x = vec![Complex64::ZERO; n];
        x[j] = Complex64::ONE;
    }
    est
}

/// Window and plain solves of the bend, crossing and isolator operators
/// agree at every axial temperature and two wavelengths, within a
/// tolerance derived from the problem size and the measured element
/// growth, and no window solve leaves the window path.
///
/// Derivation. An LU solve with partial pivoting is backward stable
/// (Higham, Thm. 9.4): the computed `x` solves `(A + ΔA)·x = b` with
/// `|ΔA| ≤ γ_{3w}·|L||U|`, `γ_k = k·u/(1 − k·u)`, where `w` bounds the
/// number of terms per inner product — here the band's row width
/// `w = kl + kv + 1 = 3·nx + 1` (241). With `|l_ij| ≤ 1` and at most
/// `kl + 1` entries per row of `L`, `‖|L||U|‖∞ ≤ (kl + 1)·w·max|u_ij|`,
/// so the relative residual obeys
///
/// ```text
/// ‖A·x − b‖∞ / (‖A‖∞·‖x‖∞) ≤ γ_{3w}·(kl + 1)·w·ρ·max|a_ij| / ‖A‖∞,
/// ```
///
/// `ρ = max|u_ij| / max|a_ij|` the measured element growth of the factor.
/// The window path eliminates whole slabs before the window (block
/// elimination), whose coupling multipliers are not bounded by 1, and
/// factors each slab and the window's Schur complement `S` as `L·D·Lᵀ`
/// without pivoting, whose multipliers are not bounded either. The same
/// theorem with `U = D·Lᵀ` gives `|ΔS| ≤ γ_{3(nx+1)}·|L||D||Lᵀ|` (and
/// likewise for each slab), each entry a sum of at most `(nx + 1)²` terms
/// `|l_ik|·|d_k|·|l_jk|` (fewer than the `(kl + 1)·w` above), so the
/// bound holds with `ρ` the largest such term over `max|a_ij|` — what
/// `direct_factor_growth` reports for the window path, over its slab and
/// window factors. The check the
/// workspace runs on every window solve bounds its backward error by
/// `WINDOW_BACKWARD_TOL` besides. By first-order perturbation theory two
/// solutions with relative residuals `η₁, η₂` differ by at most
/// `κ∞(A)·(η₁ + η₂)` relative to `‖x‖∞`; `κ∞ = ‖A‖∞·‖A⁻¹‖∞` comes from
/// Hager's estimator, a lower bound usually within a factor 3, so the
/// bound carries a factor 10.
#[test]
fn window_solves_agree_with_the_banded_lu() {
    let u = f64::EPSILON / 2.0;
    let gamma = |k: usize| k as f64 * u / (1.0 - k as f64 * u);
    for (device, g, rows) in [
        (Device::Bend, grid(), WINDOW),
        (Device::Crossing, grid(), WINDOW),
        (Device::Isolator, isolator_grid(), ISOLATOR_WINDOW),
    ] {
        let n = g.n();
        let w = 3 * g.nx + 1;
        let mut ws = SimWorkspace::new();
        ws.set_window_rows(Some(rows));
        for lambda in [1.55, 1.50] {
            let om = omega(lambda);
            let sf = SFactors::new(&g, om);
            let stencil = StencilCache::build(&g, &sf, om);
            for t in [T_NOMINAL, T_LO, T_HI] {
                let e = eps(device, t, 0.0);
                let tag = format!("{device:?} λ={lambda} T={t}");
                let b = rhs(&g, om);
                let mut diag = Vec::new();
                stencil.diag_into(&e, &mut diag);
                let a_inf = stencil.norm_inf(&diag);
                let a_max = stencil.max_abs_entry(&diag);

                let plain = assemble_banded(&g, &sf, &e, om)
                    .factor()
                    .expect("plain factor");
                let mut xp = b.clone();
                plain.solve_many(&mut xp, 2);
                let rho_p = plain.max_abs_upper() / a_max;

                let xw = solve_on(&mut ws, om, &e, &b);
                let report = ws.last_report();
                assert_eq!(report.window_fallbacks, 0, "{tag}: left the window path");
                let rho_w = ws.direct_factor_growth().expect("direct factor");

                let kappa = a_inf * inverse_norm_estimate(&plain);
                let bound =
                    |rho: f64| gamma(3 * w) * (g.nx + 1) as f64 * w as f64 * rho * a_max / a_inf;
                let (tau_p, tau_w) = (bound(rho_p), bound(rho_w));
                for c in 0..2 {
                    let col = c * n..(c + 1) * n;
                    let eta_p =
                        relative_residual(&stencil, &diag, &xp[col.clone()], &b[col.clone()]);
                    let eta_w =
                        relative_residual(&stencil, &diag, &xw[col.clone()], &b[col.clone()]);
                    assert!(
                        eta_p <= tau_p,
                        "{tag} col {c}: plain residual {eta_p:e} > {tau_p:e}"
                    );
                    assert!(
                        eta_w <= tau_w,
                        "{tag} col {c}: window residual {eta_w:e} > {tau_w:e}"
                    );
                    let diff: Vec<Complex64> = xw[col.clone()]
                        .iter()
                        .zip(&xp[col.clone()])
                        .map(|(p, q)| *p - *q)
                        .collect();
                    let rel = inf_norm(&diff) / inf_norm(&xp[col]);
                    let limit = 10.0 * kappa * (tau_p + tau_w);
                    assert!(
                        rel <= limit,
                        "{tag} col {c}: solutions differ by {rel:e} > {limit:e}"
                    );
                }
            }
        }
    }
}

/// The fixed slabs around the bend, crossing and isolator windows —
/// top in grid order, bottom reversed — factor as unpivoted `L·D·Lᵀ`
/// with no zero pivot at every axial temperature and two wavelengths,
/// and their solves agree with the slab's pivoted banded LU within a
/// bound derived from both factors' growth, as in
/// `window_solves_agree_with_the_banded_lu`: the LU's relative residual
/// is at most `γ_{3w}·(nx + 1)·w·ρ_p·max|a_ij|/‖A‖∞`; the `L·D·Lᵀ`'s at
/// most `γ_{3(nx+1)}·(nx + 1)²·ρ_l·max|a_ij|/‖A‖∞` (`ρ_l` its largest
/// term `|l_ik|·|d_k|·|l_jk|` over `max|a_ij|`, at most `(nx + 1)²`
/// terms per entry of `|L||D||Lᵀ|`); the solutions differ by at most
/// `10·κ∞·(τ_p + τ_l)` relative to `‖x‖∞`, `κ∞` from Hager's estimator
/// on the slab's LU.
#[test]
fn ldl_slabs_agree_with_their_banded_lu() {
    let u = f64::EPSILON / 2.0;
    let gamma = |k: usize| k as f64 * u / (1.0 - k as f64 * u);
    for (device, g, rows) in [
        (Device::Bend, grid(), WINDOW),
        (Device::Crossing, grid(), WINDOW),
        (Device::Isolator, isolator_grid(), ISOLATOR_WINDOW),
    ] {
        let (n, nx) = (g.n(), g.nx);
        let w = 3 * nx + 1;
        let slabs = [(0..rows.start * nx, false), (rows.end * nx..n, true)];
        for lambda in [1.55, 1.50] {
            let om = omega(lambda);
            let stencil = StencilCache::build(&g, &SFactors::new(&g, om), om);
            for t in [T_NOMINAL, T_LO, T_HI] {
                let mut diag = Vec::new();
                stencil.diag_into(&eps(device, t, 0.0), &mut diag);
                for (slab, reversed) in slabs.clone() {
                    let tag = format!("{device:?} λ={lambda} T={t} reversed={reversed}");
                    let m = slab.len();
                    let mut block = BandedMatrix::new(m, nx, nx);
                    stencil.assemble_block_with_diag(&diag, slab.clone(), reversed, 0, &mut block);
                    // ‖A‖∞ and max|a_ij| of the slab block.
                    let (mut a_inf, mut a_max) = (0.0f64, 0.0f64);
                    for i in 0..m {
                        let row = (i.saturating_sub(nx)..=(i + nx).min(m - 1))
                            .map(|j| block.get(i, j).abs());
                        a_max = row.clone().fold(a_max, f64::max);
                        a_inf = a_inf.max(row.sum());
                    }
                    let mut ldl = BandedLdl::placeholder();
                    ldl.refactor(m, nx, 0, |a, s| {
                        stencil.assemble_lower_with_diag(&diag, slab.clone(), reversed, s, a)
                    })
                    .unwrap_or_else(|e| panic!("{tag}: zero L·D·Lᵀ pivot {e:?}"));
                    let lu = block.clone().factor().expect("slab LU");
                    let b: Vec<Complex64> = (0..2 * m)
                        .map(|k| Complex64::new((k as f64 * 0.013).sin(), (k as f64 * 0.029).cos()))
                        .collect();
                    let (mut xl, mut xp) = (b.clone(), b.clone());
                    ldl.solve_many(&mut xl, 2);
                    lu.solve_many(&mut xp, 2);
                    let rho_l = ldl.max_abs_term() / a_max;
                    let rho_p = lu.max_abs_upper() / a_max;
                    let tau_l =
                        gamma(3 * (nx + 1)) * ((nx + 1) * (nx + 1)) as f64 * rho_l * a_max / a_inf;
                    let tau_p = gamma(3 * w) * (nx + 1) as f64 * w as f64 * rho_p * a_max / a_inf;
                    let kappa = a_inf * hager(m, |v| lu.solve_vec(v));
                    for c in 0..2 {
                        let col = c * m..(c + 1) * m;
                        for (what, x, tau) in [("ldl", &xl, tau_l), ("lu", &xp, tau_p)] {
                            let ax = block.matvec(&x[col.clone()]);
                            let r: Vec<Complex64> = ax
                                .iter()
                                .zip(&b[col.clone()])
                                .map(|(p, q)| *p - *q)
                                .collect();
                            let eta = inf_norm(&r) / (a_inf * inf_norm(&x[col.clone()]));
                            assert!(
                                eta <= tau,
                                "{tag} col {c}: {what} residual {eta:e} > {tau:e}"
                            );
                        }
                        let diff: Vec<Complex64> = xl[col.clone()]
                            .iter()
                            .zip(&xp[col.clone()])
                            .map(|(p, q)| *p - *q)
                            .collect();
                        let rel = inf_norm(&diff) / inf_norm(&xp[col]);
                        let limit = 10.0 * kappa * (tau_p + tau_l);
                        assert!(
                            rel <= limit,
                            "{tag} col {c}: solutions differ by {rel:e} > {limit:e}"
                        );
                    }
                }
            }
        }
    }
}

/// The whole-grid reference solve factors a healthy operator as
/// `L·D·Lᵀ` and passes the backward-error check; an operator with a zero
/// `L·D·Lᵀ` pivot — a zero first diagonal entry, which the pivoted LU
/// swaps away — and one whose `L·D·Lᵀ` solve fails the check (a NaN
/// diagonal entry) solve through the pivoted banded LU, bit for bit as
/// the plain factor.
#[test]
fn reference_solve_falls_back_to_the_pivoted_lu() {
    let g = grid();
    let (n, nx) = (g.n(), g.nx);
    let om = omega(1.55);
    let sf = SFactors::new(&g, om);
    let stencil = StencilCache::build(&g, &sf, om);
    let mut diag = Vec::new();
    stencil.diag_into(&eps(Device::Bend, T_NOMINAL, 0.0), &mut diag);
    let b = rhs(&g, om);
    let mut x = b.clone();
    assert_eq!(
        solve_reference(&stencil, &diag, &mut x),
        Ok(ReferenceFactor::Ldl)
    );
    for c in 0..2 {
        let col = c * n..(c + 1) * n;
        let mut r = vec![Complex64::ZERO; n];
        stencil.apply(&diag, &x[col.clone()], &mut r);
        let res: Vec<Complex64> = r
            .iter()
            .zip(&b[col.clone()])
            .map(|(p, q)| *p - *q)
            .collect();
        let bound = WINDOW_BACKWARD_TOL
            * (stencil.norm_inf(&diag) * inf_norm(&x[col.clone()]) + inf_norm(&b[col]));
        assert!(
            inf_norm(&res) <= bound,
            "col {c}: residual {:e} > {bound:e}",
            inf_norm(&res)
        );
    }
    let bits = |v: &[Complex64]| {
        v.iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect::<Vec<_>>()
    };
    for (k, v) in [
        (0, Complex64::ZERO),
        (40 * nx + 40, Complex64::new(f64::NAN, 0.0)),
    ] {
        let mut broken = diag.clone();
        broken[k] = v;
        let mut x = b.clone();
        assert_eq!(
            solve_reference(&stencil, &broken, &mut x),
            Ok(ReferenceFactor::PivotedLu),
            "diagonal entry {k} = {v:?}"
        );
        let mut plain = BandedMatrix::new(n, nx, nx);
        stencil.assemble_block_with_diag(&broken, 0..n, false, 0, &mut plain);
        let mut want = b.clone();
        plain.factor().expect("pivoted LU").solve_many(&mut want, 2);
        assert!(
            bits(&x) == bits(&want),
            "diagonal entry {k}: not the pivoted LU's solve"
        );
    }
}

/// A window on the grid's first or last row leaves a slab empty, and an
/// empty window has nothing to factor: all three take the plain banded
/// path, bit-identical to a workspace without window rows.
#[test]
fn degenerate_windows_take_the_plain_path() {
    let g = grid();
    let om = omega(1.55);
    let e = eps(Device::Bend, T_LO, 0.0);
    let b = rhs(&g, om);
    let plain = solve_on(&mut SimWorkspace::new(), om, &e, &b);
    for rows in [0..54, 26..80, 0..80, 30..30] {
        let mut ws = SimWorkspace::new();
        ws.set_window_rows(Some(rows.clone()));
        let x = solve_on(&mut ws, om, &e, &b);
        assert!(x == plain, "window rows {rows:?} left the plain path");
        assert_eq!(ws.last_report().window_fallbacks, 0);
        assert!(ws.slab_cache().is_empty(), "{rows:?} built slabs");
    }
}

/// A window solve that fails its backward-error check — here through a
/// NaN permittivity in the design window — is re-solved on the plain
/// banded LU, counted in the report, and bit-identical to a workspace
/// without window rows; the next finite corner takes the window path
/// again.
#[test]
fn failed_backward_error_check_falls_back_to_the_plain_lu() {
    let g = grid();
    let om = omega(1.55);
    let b = rhs(&g, om);
    let mut e = eps(Device::Bend, T_NOMINAL, 0.0);
    e[(40, 40)] = f64::NAN;
    let mut ws = window_workspace();
    let x = solve_on(&mut ws, om, &e, &b);
    let report = ws.last_report();
    assert_eq!(report.window_fallbacks, 1, "{report:?}");
    assert_eq!(report.factorizations, 2, "{report:?}");
    let plain = solve_on(&mut SimWorkspace::new(), om, &e, &b);
    let bits = |v: &[Complex64]| {
        v.iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect::<Vec<_>>()
    };
    assert!(
        bits(&x) == bits(&plain),
        "the fallback differs from the plain path"
    );
    let finite = eps(Device::Bend, T_NOMINAL, 0.0);
    let x = solve_on(&mut ws, om, &finite, &b);
    assert_eq!(ws.last_report().window_fallbacks, 0);
    assert!(x == solve_on(&mut window_workspace(), om, &finite, &b));
}

/// A corner sequence that switches temperature and wavelength on one
/// workspace — cache hits, misses and least-recently-used evictions with
/// slab storage reuse — solves every corner bit-identically to a fresh
/// workspace, whose slabs are all freshly built.
#[test]
fn cache_history_never_changes_a_result() {
    let g = grid();
    let mut ws = window_workspace();
    let sequence = [
        (1.55, T_NOMINAL),
        (1.55, T_LO),
        (1.55, T_HI),
        (1.55, T_NOMINAL),
        (1.50, T_LO),
        (1.55, T_LO),
        (1.55, T_LO),
        (1.50, T_HI),
    ];
    for (step, &(lambda, t)) in sequence.iter().enumerate() {
        let om = omega(lambda);
        let e = eps(Device::Crossing, t, 0.1 * step as f64);
        let b = rhs(&g, om);
        let x = solve_on(&mut ws, om, &e, &b);
        let fresh = solve_on(&mut window_workspace(), om, &e, &b);
        assert!(
            x == fresh,
            "step {step} (λ={lambda}, T={t}) depends on cache history"
        );
        // One lane's budget holds one factored slab pair and the build
        // storage.
        let cache = ws.slab_cache();
        assert!(
            cache.resident_bytes() <= cache.budget_bytes(),
            "step {step}: over budget"
        );
        assert!(cache.factored_len() <= 3, "step {step}");
    }
    // A two-lane budget holds the top slab and all three bottom slabs of
    // the bend's axial temperatures at once.
    let om = omega(1.55);
    let corners: Vec<Array2<f64>> = [T_NOMINAL, T_LO, T_HI]
        .iter()
        .map(|&t| eps(Device::Bend, t, 0.0))
        .collect();
    let mut ws = window_workspace();
    let terms = Arc::new(WindowTerms::new(&g, om, rhs(&g, om), Vec::new()));
    let pairs: Vec<SlabPair> = corners
        .iter()
        .map(|e| ws.slab_pair(g, 2, e, &terms, true).expect("window rows"))
        .collect();
    let cache = ws.slab_cache();
    assert_eq!(cache.len(), 4, "bend: one top and three bottom slabs");
    assert_eq!(cache.factored_len(), 4);
    assert!(cache.resident_bytes() <= cache.budget_bytes());
    drop(pairs);
    for e in &corners {
        let b = rhs(&g, om);
        assert!(solve_on(&mut ws, om, e, &b) == solve_on(&mut window_workspace(), om, e, &b));
    }
    assert_eq!(ws.slab_cache().len(), 4, "a warm cache evicted a slab");
}

/// A fan-out's columns with equal slab keys and diagonals get the very
/// same pair, each slab built once; and a pair handed to a corner must be
/// that corner's.
#[test]
fn matching_columns_share_one_slab_pair() {
    let g = grid();
    let om = omega(1.55);
    let terms = Arc::new(WindowTerms::new(&g, om, rhs(&g, om), Vec::new()));
    // The design pattern lies inside the window, so it leaves the slabs
    // alone; the temperature changes the bend's bottom guide.
    let columns = [
        (T_NOMINAL, 0.0),
        (T_LO, 0.0),
        (T_NOMINAL, 0.5),
        (T_HI, 0.0),
        (T_LO, 1.0),
    ];
    let corners: Vec<Array2<f64>> = columns
        .iter()
        .map(|&(t, p)| eps(Device::Bend, t, p))
        .collect();
    let mut ws = window_workspace();
    let pairs: Vec<SlabPair> = corners
        .iter()
        .map(|e| ws.slab_pair(g, 2, e, &terms, false).expect("window rows"))
        .collect();
    for (i, a) in pairs.iter().enumerate() {
        for (j, b) in pairs.iter().enumerate() {
            assert_eq!(
                SlabPair::ptr_eq(a, b),
                columns[i].0 == columns[j].0,
                "columns {i} and {j}"
            );
        }
    }
    assert_eq!(
        ws.slab_cache().len(),
        4,
        "one top and three bottom slabs, each built once"
    );
    assert_eq!(ws.slab_cache().factored_len(), 0, "window-only slabs");
    let mut lane = window_workspace();
    lane.factor_terms(g, &corners[2], &terms, false, Some(&pairs[0]))
        .unwrap();
    let wrong = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        lane.factor_terms(g, &corners[1], &terms, false, Some(&pairs[0]))
    }));
    assert!(wrong.is_err(), "a corner took another corner's slab pair");
}

/// A slab entry in use — held by a pair handed to a column, or by the
/// window factor condensed with it — is never evicted, even with the
/// cache over its budget; once released it is evicted like any other.
#[test]
fn held_slabs_are_never_evicted() {
    let g = grid();
    let om = omega(1.55);
    let terms = Arc::new(WindowTerms::new(&g, om, rhs(&g, om), Vec::new()));
    let corner = |t| eps(Device::Bend, t, 0.0);
    let mut owner = window_workspace();
    let mut lane = window_workspace();
    let pair = |ws: &mut SimWorkspace, t| ws.slab_pair(g, 1, &corner(t), &terms, true).unwrap();
    // Three factored pairs held at once: over a one-lane budget, and
    // every entry stays.
    let held: Vec<SlabPair> = [T_NOMINAL, T_LO, T_HI]
        .iter()
        .map(|&t| pair(&mut owner, t))
        .collect();
    let cache = owner.slab_cache();
    assert_eq!((cache.len(), cache.factored_len()), (4, 4));
    assert!(cache.resident_bytes() > cache.budget_bytes());
    // The lane's window factor keeps the T_LO pair after its column lets
    // go; the next lookup evicts only the unheld T_HI bottom slab, though
    // the cache stays over budget.
    lane.factor_terms(g, &corner(T_LO), &terms, true, Some(&held[1]))
        .unwrap();
    drop(held);
    let nominal = pair(&mut owner, T_NOMINAL);
    let cache = owner.slab_cache();
    assert_eq!(
        cache.len(),
        3,
        "a held slab was evicted, or an unheld one kept"
    );
    assert!(cache.resident_bytes() > cache.budget_bytes());
    // The lane moves on to the nominal corner and releases T_LO: the next
    // build evicts its bottom slab.
    lane.factor_terms(g, &corner(T_NOMINAL), &terms, true, Some(&nominal))
        .unwrap();
    drop(nominal);
    let _hi = pair(&mut owner, T_HI);
    let cache = owner.slab_cache();
    assert_eq!(
        (cache.len(), cache.factored_len()),
        (3, 3),
        "the released T_LO slab was kept"
    );
}

/// The window factor resumes at its first changed column — a design
/// cell — or earlier when a slab it was condensed with changed: at the
/// window's last grid row for a new bottom slab (temperature, or a
/// bottom-slab cell alone), at column 0 for a new top slab. Every
/// resumed factor solves bit-identically to a fresh one.
#[test]
fn resumed_window_factor_is_bit_identical_to_a_fresh_one() {
    let g = grid();
    let om = omega(1.55);
    let mut ws = window_workspace();
    // (device, temperature, window perturbation, perturbed slab rows)
    let steps: [(Device, f64, f64, &[usize]); 8] = [
        (Device::Bend, T_NOMINAL, 0.0, &[]),
        // Design cells only.
        (Device::Bend, T_NOMINAL, 0.3, &[]),
        // Temperature: the bottom slab and the design cells.
        (Device::Bend, T_HI, 0.3, &[]),
        // A late design cell only.
        (Device::Bend, T_HI, 0.3001, &[]),
        // A bottom-slab row only: the window's diagonal is unchanged.
        (Device::Bend, T_HI, 0.3001, &[60]),
        // A top-slab row only.
        (Device::Bend, T_HI, 0.3001, &[60, 20]),
        // The crossing: its top slab changes too.
        (Device::Crossing, T_HI, 0.3001, &[]),
        (Device::Crossing, T_LO, 0.3001, &[]),
    ];
    for (k, &(device, t, pattern, slab_rows)) in steps.iter().enumerate() {
        let mut e = eps(device, t, 0.0);
        if pattern != 0.0 {
            // Perturb the window's last rows only, so the resume point
            // lies deep inside the window factor.
            for iy in 50..54 {
                for ix in 26..54 {
                    e[(iy, ix)] += pattern;
                }
            }
        }
        for &iy in slab_rows {
            for ix in 26..54 {
                e[(iy, ix)] += 0.5;
            }
        }
        let b = rhs(&g, om);
        let x = solve_on(&mut ws, om, &e, &b);
        let fresh = solve_on(&mut window_workspace(), om, &e, &b);
        assert!(
            x == fresh,
            "step {k}: resumed window factor differs from a fresh one"
        );
    }
}

/// `dF/dε` from the adjoint method through the window path vs central
/// finite differences of plain banded solves, for a modal-power
/// objective on a bend corner at T_lo, whose bottom slab differs from
/// the nominal one. Cells in the window and in both slabs.
#[test]
fn window_adjoint_gradient_matches_finite_difference() {
    let g = grid();
    let n = g.n();
    let om = omega(1.55);
    let eps_nominal = eps(Device::Bend, T_NOMINAL, 0.0);
    let e = eps(Device::Bend, T_LO, 0.0);
    let port_in = Port::new("in", Axis::X, 16, 26, 54);
    let port_out = Port::new("out", Axis::Y, 63, 26, 54);
    let mode_in = port_in.solve_modes(&g, &eps_nominal, om, 1).remove(0);
    let mode_out = port_out.solve_modes(&g, &eps_nominal, om, 1).remove(0);
    let jz = ModalSource::new(port_in, mode_in, Sign::Plus).current(&g);
    let mon = ModalMonitor::new(&g, &port_out, &mode_out, Sign::Plus);
    let sf = SFactors::new(&g, om);
    let objective = |eps_map: &Array2<f64>| {
        let lu = assemble_banded(&g, &sf, eps_map, om)
            .factor()
            .expect("plain factor");
        let mut field = vec![Complex64::ZERO; n];
        scale_source_into(&g, &sf, om, &jz, &mut field);
        lu.solve(&mut field);
        mon.power(&field)
    };

    // Window cells, one in the top slab, two in the bottom guide.
    let cells = [(40usize, 40usize), (30, 50), (40, 20), (40, 60), (38, 70)];
    let h = 1e-5;
    let fd: Vec<f64> = cells
        .iter()
        .map(|&(ix, iy)| {
            let mut ep = e.clone();
            ep[(iy, ix)] += h;
            let fp = objective(&ep);
            ep[(iy, ix)] -= 2.0 * h;
            (fp - objective(&ep)) / (2.0 * h)
        })
        .collect();
    let fd_scale = fd.iter().fold(0.0f64, |m, v| m.max(v.abs()));

    let mut ws = window_workspace();
    ws.factor(g, om, &e).unwrap();
    let mut field = vec![Complex64::ZERO; n];
    scale_source_into(&g, ws.sfactors(), om, &jz, &mut field);
    ws.solve_block(&mut field, 1).unwrap();
    let mut lam = vec![Complex64::ZERO; n];
    mon.accumulate_power_grad(&field, 1.0, &mut lam);
    ws.solve_block(&mut lam, 1).unwrap();
    assert_eq!(ws.last_report().window_fallbacks, 0, "left the window path");
    let mut grad = Array2::zeros(g.ny, g.nx);
    ws.grad_eps_accumulate(&field, &lam, &mut grad);

    // Tolerance, as for the iterative path's check in `sim.rs`: central
    // differences carry 2e-3 of the cell's own value (O(h²) truncation)
    // plus 1e-6 of the gradient scale (round-off, near-zero cells). A
    // window solve passes its backward-error check, so its relative
    // field error is at most κ∞(A)·WINDOW_BACKWARD_TOL; the gradient
    // −2Re(λ·sxy·E)·ω² is bilinear in the forward field and the adjoint,
    // so to first order it moves by at most 2·κ∞·WINDOW_BACKWARD_TOL of
    // its scale. κ∞ comes from Hager's estimator (× 10, see above).
    let plain = assemble_banded(&g, &sf, &e, om).factor().unwrap();
    let mut diag = Vec::new();
    let stencil = StencilCache::build(&g, &sf, om);
    stencil.diag_into(&e, &mut diag);
    let kappa = 10.0 * stencil.norm_inf(&diag) * inverse_norm_estimate(&plain);
    let window_rel = 2.0 * kappa * WINDOW_BACKWARD_TOL;
    for (&(ix, iy), &fd) in cells.iter().zip(&fd) {
        let ad = grad[(iy, ix)];
        assert!(
            (fd - ad).abs() < 2e-3 * fd.abs() + (1e-6 + window_rel) * fd_scale,
            "adjoint {ad} vs FD {fd} at ({ix},{iy}); κ∞ ≈ {kappa:e}"
        );
    }
}

/// Fixed right-hand sides and output forms for window-only solves on
/// `device`'s grid at `om`: two right-hand sides and four forms.
/// Right-hand side 0 is the line current of [`rhs`] (for the isolator a
/// 2.6 µm line across rows 14..66, through both slabs), right-hand side 1
/// the dense block of [`rhs`], so both reach a slab on the isolator and
/// the second does on every device. The forms read a line in the window,
/// a three-plane monitor in the bottom slab (the bend's `trans` rows
/// 62–64), a line in the top slab, and a sparse pseudo-random form over
/// the whole grid.
fn window_case(device: Device, g: &SimGrid, om: f64) -> (Vec<Complex64>, Vec<(usize, LinearForm)>) {
    let n = g.n();
    let mut b = rhs(g, om);
    if let Device::Isolator = device {
        let mut jz = vec![Complex64::ZERO; n];
        for iy in 14..66 {
            jz[g.idx(16, iy)] = Complex64::new(1.0, 0.0);
        }
        scale_source_into(g, &SFactors::new(g, om), om, &jz, &mut b[..n]);
    }
    let line = |iy: usize, xs: std::ops::Range<usize>, phase: f64| LinearForm {
        weights: xs
            .map(|ix| {
                (
                    g.idx(ix, iy),
                    Complex64::new((phase * ix as f64).cos(), 0.3),
                )
            })
            .collect(),
    };
    let mut trans = line(62, 36..44, 0.5);
    for iy in [63, 64] {
        trans.weights.extend(line(iy, 36..44, 0.7).weights);
    }
    let sparse = LinearForm {
        weights: (0..n)
            .step_by(7)
            .map(|k| (k, Complex64::new((k as f64 * 0.011).sin(), 0.1)))
            .collect(),
    };
    let forms = vec![
        (0, line(40, 30..50, 0.2)),
        (0, trans),
        (1, line(20, 30..50, 0.4)),
        (1, sparse),
    ];
    (b, forms)
}

/// Adjoint coefficients of [`window_case`]'s forms.
const COEF: [Complex64; 4] = [
    Complex64::new(1.0, 0.0),
    Complex64::new(0.0, 0.5),
    Complex64::new(-0.7, 0.2),
    Complex64::new(0.3, -0.4),
];

/// Window-only solves of the bend, crossing and isolator windows agree
/// with the plain banded LU at every axial temperature and two
/// wavelengths — the window rows of the forward and adjoint solutions,
/// and every form's reading — within a derived bound, and no solve leaves
/// the window path.
///
/// Derivation. A window-only solve applies the factors the full window
/// path applies — the slabs' and `S`'s `L·D·Lᵀ` — in another
/// order: each slab's solves of the right-hand sides and forms that reach
/// it run once, at build, instead of per column. Its result is therefore
/// the window rows of a solution whose relative residual obeys the bound
/// `τ_w` of `window_solves_agree_with_the_banded_lu` (`ρ` the growth
/// `direct_factor_growth` reports over the window factor and the slabs),
/// and it differs from the plain solution by at most
/// `10·κ∞·(τ_p + τ_w)` relative to `‖x‖∞`. A reading `w·x` then moves by
/// at most `‖w‖₁` times that field error.
#[test]
fn window_only_solves_agree_with_the_banded_lu() {
    let u = f64::EPSILON / 2.0;
    let gamma = |k: usize| k as f64 * u / (1.0 - k as f64 * u);
    for (device, g, rows) in [
        (Device::Bend, grid(), WINDOW),
        (Device::Crossing, grid(), WINDOW),
        (Device::Isolator, isolator_grid(), ISOLATOR_WINDOW),
    ] {
        let n = g.n();
        let w = 3 * g.nx + 1;
        let window = rows.start * g.nx..rows.end * g.nx;
        let nw = window.len();
        let mut ws = SimWorkspace::new();
        ws.set_window_rows(Some(rows));
        for lambda in [1.55, 1.50] {
            let om = omega(lambda);
            let sf = SFactors::new(&g, om);
            let stencil = StencilCache::build(&g, &sf, om);
            let (b, forms) = window_case(device, &g, om);
            let terms = Arc::new(WindowTerms::new(&g, om, b.clone(), forms.clone()));
            for t in [T_NOMINAL, T_LO, T_HI] {
                let e = eps(device, t, 0.0);
                let tag = format!("{device:?} λ={lambda} T={t}");
                let mut diag = Vec::new();
                stencil.diag_into(&e, &mut diag);
                let a_inf = stencil.norm_inf(&diag);
                let a_max = stencil.max_abs_entry(&diag);
                let plain = assemble_banded(&g, &sf, &e, om)
                    .factor()
                    .expect("plain factor");
                let mut xp = b.clone();
                plain.solve_many(&mut xp, 2);
                let mut lp = vec![Complex64::ZERO; 2 * n];
                for ((ex, form), c) in forms.iter().zip(COEF) {
                    form.accumulate(c, &mut lp[ex * n..(ex + 1) * n]);
                }
                plain.solve_many(&mut lp, 2);

                ws.factor_terms(g, &e, &terms, false, None)
                    .expect("window factor");
                let (mut fields, mut amps, mut lambdas) = (Vec::new(), Vec::new(), Vec::new());
                ws.solve_terms(&mut fields, &mut amps).expect("solve");
                ws.solve_terms_adjoint(&COEF, &mut lambdas)
                    .expect("adjoint");
                assert_eq!(
                    ws.last_report().window_fallbacks,
                    0,
                    "{tag}: left the window path"
                );
                assert_eq!(ws.window_unknowns(), window);
                let rho_w = ws.direct_factor_growth().expect("direct factor");
                let rho_p = plain.max_abs_upper() / a_max;
                let kappa = a_inf * inverse_norm_estimate(&plain);
                let bound =
                    |rho: f64| gamma(3 * w) * (g.nx + 1) as f64 * w as f64 * rho * a_max / a_inf;
                let rel = 10.0 * kappa * (bound(rho_p) + bound(rho_w));
                for (what, got, want) in [("field", &fields, &xp), ("adjoint", &lambdas, &lp)] {
                    for c in 0..2 {
                        let full = &want[c * n..(c + 1) * n];
                        let diff: Vec<Complex64> = got[c * nw..(c + 1) * nw]
                            .iter()
                            .zip(&full[window.clone()])
                            .map(|(p, q)| *p - *q)
                            .collect();
                        let limit = rel * inf_norm(full);
                        assert!(
                            inf_norm(&diff) <= limit,
                            "{tag} {what} {c}: window rows differ by {:e} > {limit:e}",
                            inf_norm(&diff)
                        );
                    }
                }
                for (f, (ex, form)) in forms.iter().enumerate() {
                    let x = &xp[ex * n..(ex + 1) * n];
                    let want = form.eval(x);
                    let limit = form_norm(form) * rel * inf_norm(x);
                    assert!(
                        (amps[f] - want).abs() <= limit,
                        "{tag} form {f}: reading {:?} vs {want:?} (limit {limit:e})",
                        amps[f]
                    );
                }
            }
        }
    }
}

/// `Σ|w_k|` of a form.
fn form_norm(form: &LinearForm) -> f64 {
    form.weights.iter().map(|(_, w)| w.abs()).sum()
}

/// `dF/dε` of a window-only solve (forward and adjoint on the window
/// rows, the `trans`-like output form in the bottom slab read through its
/// condensed image) vs central finite differences of plain banded solves,
/// for `F = |w·E|²` on a bend corner at T_lo, at window cells. The
/// window-only gradient is zero outside the window's rows. Tolerance as
/// in `window_adjoint_gradient_matches_finite_difference`.
#[test]
fn window_only_gradient_matches_finite_difference() {
    let g = grid();
    let n = g.n();
    let om = omega(1.55);
    let eps_nominal = eps(Device::Bend, T_NOMINAL, 0.0);
    let e = eps(Device::Bend, T_LO, 0.0);
    let port_in = Port::new("in", Axis::X, 16, 26, 54);
    let port_out = Port::new("out", Axis::Y, 63, 26, 54);
    let mode_in = port_in.solve_modes(&g, &eps_nominal, om, 1).remove(0);
    let mode_out = port_out.solve_modes(&g, &eps_nominal, om, 1).remove(0);
    let jz = ModalSource::new(port_in, mode_in, Sign::Plus).current(&g);
    let mon = ModalMonitor::new(&g, &port_out, &mode_out, Sign::Plus);
    let sf = SFactors::new(&g, om);
    let mut b = vec![Complex64::ZERO; n];
    scale_source_into(&g, &sf, om, &jz, &mut b);
    let objective = |eps_map: &Array2<f64>| {
        let lu = assemble_banded(&g, &sf, eps_map, om)
            .factor()
            .expect("plain factor");
        let mut field = b.clone();
        lu.solve(&mut field);
        mon.power(&field)
    };
    let cells = [(40usize, 40usize), (30, 50), (45, 27), (35, 53)];
    let h = 1e-5;
    let fd: Vec<f64> = cells
        .iter()
        .map(|&(ix, iy)| {
            let mut ep = e.clone();
            ep[(iy, ix)] += h;
            let fp = objective(&ep);
            ep[(iy, ix)] -= 2.0 * h;
            (fp - objective(&ep)) / (2.0 * h)
        })
        .collect();
    let fd_scale = fd.iter().fold(0.0f64, |m, v| m.max(v.abs()));

    let terms = Arc::new(WindowTerms::new(
        &g,
        om,
        b.clone(),
        vec![(0, mon.form().clone())],
    ));
    let mut ws = window_workspace();
    ws.factor_terms(g, &e, &terms, false, None).unwrap();
    let (mut field, mut amps, mut lam) = (Vec::new(), Vec::new(), Vec::new());
    ws.solve_terms(&mut field, &mut amps).unwrap();
    // The Wirtinger gradient of |A|² is conj(A)·w.
    ws.solve_terms_adjoint(&[amps[0].conj()], &mut lam).unwrap();
    assert_eq!(ws.last_report().window_fallbacks, 0, "left the window path");
    let mut grad = Array2::zeros(g.ny, g.nx);
    ws.grad_eps_accumulate_window(&field, &lam, &mut grad);
    for iy in (0..g.ny).filter(|iy| !WINDOW.contains(iy)) {
        assert!(
            (0..g.nx).all(|ix| grad[(iy, ix)] == 0.0),
            "row {iy} outside the window"
        );
    }

    let plain = assemble_banded(&g, &sf, &e, om).factor().unwrap();
    let mut diag = Vec::new();
    let stencil = StencilCache::build(&g, &sf, om);
    stencil.diag_into(&e, &mut diag);
    let kappa = 10.0 * stencil.norm_inf(&diag) * inverse_norm_estimate(&plain);
    let window_rel = 2.0 * kappa * WINDOW_BACKWARD_TOL;
    for (&(ix, iy), &fd) in cells.iter().zip(&fd) {
        let ad = grad[(iy, ix)];
        assert!(
            (fd - ad).abs() < 2e-3 * fd.abs() + (1e-6 + window_rel) * fd_scale,
            "adjoint {ad} vs FD {fd} at ({ix},{iy}); κ∞ ≈ {kappa:e}"
        );
    }
}

/// Window-only, full-field and full-field-with-terms corners, mixed over
/// temperatures and wavelengths on one workspace — entries with and
/// without LUs for one key, hits, misses, evictions and build-storage
/// reuse — give every result bit-identically to a fresh workspace, and
/// the cache stays within its byte budget.
#[test]
fn cache_history_never_changes_a_condensed_result() {
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        Window,
        Full,
        FullWithTerms,
    }
    let g = grid();
    let terms: Vec<(f64, Arc<WindowTerms>)> = [1.55, 1.50]
        .iter()
        .map(|&lambda| {
            let om = omega(lambda);
            let (b, forms) = window_case(Device::Isolator, &g, om);
            (lambda, Arc::new(WindowTerms::new(&g, om, b, forms)))
        })
        .collect();
    let run = |ws: &mut SimWorkspace, lambda: f64, e: &Array2<f64>, kind: Kind| {
        let (_, t) = terms.iter().find(|(l, _)| *l == lambda).expect("terms");
        let mut out = Vec::new();
        match kind {
            Kind::Window => {
                ws.factor_terms(g, e, t, false, None).unwrap();
                let (mut f, mut a, mut l) = (Vec::new(), Vec::new(), Vec::new());
                ws.solve_terms(&mut f, &mut a).unwrap();
                ws.solve_terms_adjoint(&COEF, &mut l).unwrap();
                out.extend(f.into_iter().chain(a).chain(l));
            }
            Kind::Full => out = solve_on(ws, t.omega(), e, &rhs(&g, t.omega())),
            Kind::FullWithTerms => {
                ws.factor_terms(g, e, t, true, None).unwrap();
                let (mut f, mut a) = (Vec::new(), Vec::new());
                ws.solve_terms(&mut f, &mut a).unwrap();
                let mut x = rhs(&g, t.omega());
                ws.solve_block(&mut x, 2).unwrap();
                out.extend(f.into_iter().chain(a).chain(x));
            }
        }
        assert_eq!(ws.last_report().window_fallbacks, 0);
        out
    };
    let sequence = [
        (1.55, T_NOMINAL, Kind::Window),
        (1.55, T_NOMINAL, Kind::FullWithTerms),
        (1.55, T_LO, Kind::Window),
        (1.55, T_NOMINAL, Kind::Window),
        (1.50, T_HI, Kind::Full),
        (1.50, T_HI, Kind::Window),
        (1.55, T_HI, Kind::FullWithTerms),
        (1.50, T_LO, Kind::Window),
        (1.55, T_LO, Kind::Full),
        (1.55, T_LO, Kind::Window),
    ];
    let mut ws = window_workspace();
    for (step, &(lambda, t, kind)) in sequence.iter().enumerate() {
        let e = eps(Device::Crossing, t, 0.1 * step as f64);
        let got = run(&mut ws, lambda, &e, kind);
        let fresh = run(&mut window_workspace(), lambda, &e, kind);
        assert!(
            got == fresh,
            "step {step} (λ={lambda}, T={t}, {kind:?}) depends on cache history"
        );
        let cache = ws.slab_cache();
        assert!(
            cache.resident_bytes() <= cache.budget_bytes(),
            "step {step}: over budget"
        );
    }
}

/// A window-only solve that fails its check on the window rows — a NaN
/// permittivity in the design window — is re-solved on the plain banded
/// LU, counted in the report, and reads exactly what the plain path
/// reads; its adjoint is the plain path's on the window rows; the next
/// finite corner takes the window path again.
#[test]
fn failed_window_only_check_falls_back_to_the_plain_lu() {
    let g = grid();
    let n = g.n();
    let om = omega(1.55);
    let (b, forms) = window_case(Device::Bend, &g, om);
    let terms = Arc::new(WindowTerms::new(&g, om, b.clone(), forms.clone()));
    let mut e = eps(Device::Bend, T_NOMINAL, 0.0);
    e[(40, 40)] = f64::NAN;
    let mut ws = window_workspace();
    ws.factor_terms(g, &e, &terms, false, None).unwrap();
    let (mut fields, mut amps) = (Vec::new(), Vec::new());
    ws.solve_terms(&mut fields, &mut amps).unwrap();
    let report = ws.last_report();
    assert_eq!(report.window_fallbacks, 1, "{report:?}");
    assert_eq!(report.factorizations, 2, "{report:?}");
    let plain = solve_on(&mut SimWorkspace::new(), om, &e, &b);
    let want: Vec<Complex64> = forms
        .iter()
        .map(|(ex, form)| form.eval(&plain[ex * n..(ex + 1) * n]))
        .collect();
    let bits = |v: &[Complex64]| {
        v.iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect::<Vec<_>>()
    };
    assert!(bits(&amps) == bits(&want), "the fallback reads differently");
    // The adjoint solves on the plain LU too and returns the window rows.
    let mut lambdas = Vec::new();
    ws.solve_terms_adjoint(&COEF, &mut lambdas).unwrap();
    let mut sources = vec![Complex64::ZERO; 2 * n];
    for ((ex, form), c) in forms.iter().zip(COEF) {
        form.accumulate(c, &mut sources[ex * n..(ex + 1) * n]);
    }
    let plain = solve_on(&mut SimWorkspace::new(), om, &e, &sources);
    let window = WINDOW.start * g.nx..WINDOW.end * g.nx;
    let want: Vec<Complex64> = plain
        .chunks_exact(n)
        .flat_map(|col| col[window.clone()].to_vec())
        .collect();
    assert!(
        bits(&lambdas) == bits(&want),
        "the fallback adjoint differs"
    );
    let finite = eps(Device::Bend, T_NOMINAL, 0.0);
    ws.factor_terms(g, &finite, &terms, false, None).unwrap();
    ws.solve_terms(&mut fields, &mut amps).unwrap();
    assert_eq!(ws.last_report().window_fallbacks, 0);
}

/// On a corner prepared with slab factors (`full`), the terms' solves
/// are whole-grid: the fields and readings are `solve_block`'s on the
/// same corner bit for bit, and an adjoint whose only source is the
/// second excitation is solved packed and returned in that excitation's
/// column, the first column exactly zero.
#[test]
fn full_field_terms_solves_match_solve_block() {
    let g = grid();
    let n = g.n();
    let om = omega(1.55);
    let (b, forms) = window_case(Device::Isolator, &g, om);
    let terms = Arc::new(WindowTerms::new(&g, om, b.clone(), forms.clone()));
    let e = eps(Device::Crossing, T_HI, 0.1);
    let mut ws = window_workspace();
    ws.factor_terms(g, &e, &terms, true, None).unwrap();
    assert_eq!(ws.window_unknowns(), 0..n);
    let (mut fields, mut amps, mut lambdas) = (Vec::new(), Vec::new(), Vec::new());
    ws.solve_terms(&mut fields, &mut amps).unwrap();
    let coef = [Complex64::ZERO, Complex64::ZERO, COEF[2], COEF[3]];
    ws.solve_terms_adjoint(&coef, &mut lambdas).unwrap();
    let report = ws.last_report().clone();
    assert_eq!((report.solves, report.window_fallbacks), (3, 0));

    let mut x = b;
    ws.solve_block(&mut x, 2).unwrap();
    let mut source = vec![Complex64::ZERO; n];
    for ((ex, form), c) in forms.iter().zip(coef) {
        if *ex == 1 {
            form.accumulate(c, &mut source);
        }
    }
    ws.solve_block(&mut source, 1).unwrap();
    let bits = |v: &[Complex64]| {
        v.iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect::<Vec<_>>()
    };
    assert!(bits(&fields) == bits(&x), "fields differ from solve_block");
    let read: Vec<Complex64> = forms
        .iter()
        .map(|(ex, form)| form.eval(&x[ex * n..(ex + 1) * n]))
        .collect();
    assert!(bits(&amps) == bits(&read), "readings differ");
    assert!(lambdas[..n].iter().all(|z| *z == Complex64::ZERO));
    assert!(bits(&lambdas[n..]) == bits(&source), "adjoint differs");
}

/// `solve_block` on a corner prepared for window-only solves panics: its
/// slabs keep no factor, and the corner is not prepared again behind the
/// caller's back (its terms solve through `solve_terms`).
#[test]
#[should_panic(expected = "solve_block after a window-only preparation")]
fn solve_block_after_a_window_only_preparation_panics() {
    let g = grid();
    let om = omega(1.55);
    let (b, forms) = window_case(Device::Isolator, &g, om);
    let terms = Arc::new(WindowTerms::new(&g, om, b.clone(), forms));
    let e = eps(Device::Bend, T_LO, 0.2);
    let mut ws = window_workspace();
    ws.factor_terms(g, &e, &terms, false, None).unwrap();
    let mut x = b;
    let _ = ws.solve_block(&mut x, 2);
}
