//! Benchmarks of the FDFD linear-algebra core: operator assembly, banded
//! LU factorisation, triangular solves, and direct vs iterative corner
//! solves.

use boson_core::fabchain::assemble_eps;
use boson_core::problem::bending;
use boson_fab::temperature::T_NOMINAL;
use boson_fdfd::grid::SimGrid;
use boson_fdfd::monitor::LinearForm;
use boson_fdfd::operator::{assemble_banded, scale_source, scale_source_into, StencilCache};
use boson_fdfd::pml::SFactors;
use boson_fdfd::sim::{CornerContext, SimWorkspace, SolverStrategy};
use boson_fdfd::window::WindowTerms;
use boson_num::banded::{reference, BandedLdl, BandedLu, BandedMatrix};
use boson_num::{Array2, Complex64};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn setup(n: usize) -> (SimGrid, SFactors, Array2<f64>, f64) {
    let grid = SimGrid::new(n, n, 0.05, 10);
    let omega = 2.0 * std::f64::consts::PI / 1.55;
    let s = SFactors::new(&grid, omega);
    let eps = Array2::from_fn(
        n,
        n,
        |iy, _| {
            if iy.abs_diff(n / 2) < 5 {
                12.11
            } else {
                1.0
            }
        },
    );
    (grid, s, eps, omega)
}

fn bench_assembly(c: &mut Criterion) {
    let (grid, s, eps, omega) = setup(64);
    c.bench_function("assemble_banded_64x64", |b| {
        b.iter(|| black_box(assemble_banded(&grid, &s, &eps, omega)))
    });
}

fn bench_factor_and_solve(c: &mut Criterion) {
    let (grid, s, eps, omega) = setup(64);
    c.bench_function("banded_lu_factor_64x64", |b| {
        b.iter(|| {
            let a = assemble_banded(&grid, &s, &eps, omega);
            black_box(a.factor().unwrap())
        })
    });
    let lu = assemble_banded(&grid, &s, &eps, omega).factor().unwrap();
    let rhs: Vec<Complex64> = (0..grid.n())
        .map(|k| Complex64::new((k as f64 * 0.01).sin(), 0.0))
        .collect();
    c.bench_function("banded_lu_solve_64x64", |b| {
        b.iter(|| black_box(lu.solve_vec(&rhs)))
    });
}

/// One bend corner factored in place from scratch (`fresh`) vs resumed at
/// the design window's first cell (`resumed`), as the plain banded LU
/// does for a corner that differs from the factor's operator only inside
/// the window; both produce the same factor bit for bit. `window_slab`
/// is the same corner as [`SimWorkspace`] factors it with the design
/// window's rows set: the fixed top and bottom slabs come from its warm
/// slab cache, and only the window's Schur complement is refactored,
/// resuming at the window's first design cell. `window_lu` and
/// `window_ldl` factor that Schur complement `S` from column 0 both
/// ways, with the pivoted banded LU and with the complex-symmetric
/// `L·D·Lᵀ` the workspace uses, each assembled by copying `S`'s band.
/// `slab_lu` and `slab_ldl` refactor the corner's bottom slab (its last
/// grid rows in reversed order, 2,080 × 80 on the bend) warm from column
/// 0 both ways, assembled straight into each factor's storage: the
/// pivoted banded LU the slabs used to be, and the `L·D·Lᵀ` they are.
/// `scripts/bench.sh` records the seven medians ungated.
fn bench_refactor(c: &mut Criterion) {
    let bend = bending();
    let (grid, omega) = (bend.grid, bend.omega);
    let (dr, dc) = bend.design_shape;
    let eps_of = |rho: &Array2<f64>| {
        assemble_eps(&bend.background_solid, bend.design_origin, rho, T_NOMINAL)
    };
    let nominal = eps_of(&Array2::filled(dr, dc, 0.5));
    let corner = eps_of(&Array2::from_fn(dr, dc, |r, c| {
        if (r + c) % 3 == 0 {
            0.8
        } else {
            0.5
        }
    }));
    let s = SFactors::new(&grid, omega);
    let stencil = StencilCache::build(&grid, &s, omega);
    let (mut diag_nominal, mut diag_corner) = (Vec::new(), Vec::new());
    stencil.diag_into(&nominal, &mut diag_nominal);
    stencil.diag_into(&corner, &mut diag_corner);
    let start = (0..grid.n())
        .find(|&k| diag_nominal[k] != diag_corner[k])
        .expect("the corner differs from the nominal");
    let (n, nx) = (grid.n(), grid.nx);
    let assemble = |a: &mut BandedMatrix, start: usize| {
        stencil.assemble_block_with_diag(&diag_corner, 0..n, false, start, a)
    };
    let mut lu = BandedLu::placeholder();
    lu.refactor(n, nx, nx, 0, |a, start| {
        stencil.assemble_block_with_diag(&diag_nominal, 0..n, false, start, a)
    })
    .unwrap();
    let mut group = c.benchmark_group("banded_refactor_80x80");
    group.sample_size(10);
    group.bench_function("fresh", |b| {
        b.iter(|| black_box(lu.refactor(n, nx, nx, 0, assemble).unwrap()))
    });
    group.bench_function("resumed", |b| {
        b.iter(|| black_box(lu.refactor(n, nx, nx, start, assemble).unwrap()))
    });
    let (oy, h) = (bend.design_origin.0, bend.design_shape.0);
    let s_window = window_schur(&stencil, &diag_corner, nx, oy * nx..(oy + h) * nx);
    let nw = s_window.n();
    {
        // S⁻¹·f_W is the window part of A⁻¹·f for f zero off the window.
        let lo = oy * nx;
        let mut f = vec![Complex64::ZERO; n];
        for (k, v) in f[lo..lo + nw].iter_mut().enumerate() {
            *v = Complex64::new((k as f64 * 0.37).sin(), (k as f64 * 0.11).cos());
        }
        let x_w = s_window
            .clone()
            .factor()
            .unwrap()
            .solve_vec(&f[lo..lo + nw]);
        lu.refactor(n, nx, nx, 0, assemble).unwrap();
        lu.solve(&mut f);
        let scale = f.iter().fold(0.0f64, |m, z| m.max(z.abs()));
        for (p, q) in x_w.iter().zip(&f[lo..lo + nw]) {
            assert!((*p - *q).abs() <= 1e-9 * scale, "window Schur complement");
        }
    }
    let mut w_lu = BandedLu::placeholder();
    group.bench_function("window_lu", |b| {
        b.iter(|| {
            let copy = |a: &mut BandedMatrix, start: usize| {
                for j in start..nw {
                    for i in j.saturating_sub(nx)..=(j + nx).min(nw - 1) {
                        a.set(i, j, s_window.get(i, j));
                    }
                }
            };
            black_box(w_lu.refactor(nw, nx, nx, 0, copy).unwrap())
        })
    });
    let mut w_ldl = BandedLdl::placeholder();
    group.bench_function("window_ldl", |b| {
        b.iter(|| {
            let copy = |a: &mut BandedLdl, start: usize| {
                for j in start..nw {
                    for i in j..=(j + nx).min(nw - 1) {
                        a.set(i, j, s_window.get(i, j));
                    }
                }
            };
            black_box(w_ldl.refactor(nw, nx, 0, copy).unwrap())
        })
    });
    let slab = (oy + h) * nx..n;
    let m = slab.len();
    let mut s_lu = BandedLu::placeholder();
    group.bench_function("slab_lu", |b| {
        b.iter(|| {
            let assemble = |a: &mut BandedMatrix, start: usize| {
                stencil.assemble_block_with_diag(&diag_corner, slab.clone(), true, start, a)
            };
            black_box(s_lu.refactor(m, nx, nx, 0, assemble).unwrap())
        })
    });
    let mut s_ldl = BandedLdl::placeholder();
    group.bench_function("slab_ldl", |b| {
        b.iter(|| {
            let assemble = |a: &mut BandedLdl, start: usize| {
                stencil.assemble_lower_with_diag(&diag_corner, slab.clone(), true, start, a)
            };
            black_box(s_ldl.refactor(m, nx, 0, assemble).unwrap())
        })
    });
    let mut ws = SimWorkspace::new();
    ws.set_window_rows(Some(oy..oy + h));
    ws.factor(grid, omega, &nominal).unwrap();
    // Alternating the two permittivities makes every factor resume at
    // the design window's first cell; the slabs hit the cache.
    let mut flip = false;
    group.bench_function("window_slab", |b| {
        b.iter(|| {
            flip = !flip;
            let eps = if flip { &corner } else { &nominal };
            ws.factor(grid, omega, eps).unwrap();
            black_box(&ws);
        })
    });
    group.finish();
}

/// One bend window column solved both ways on a prepared corner (the
/// `window_slab` corner of [`bench_refactor`], factored once): `full`
/// solves the whole grid through the slab factors and the window factor
/// (`SimWorkspace::solve_block`), `condensed` solves only the window's
/// rows for the same right-hand side, the bend's input line current, and
/// reads two forms — a line in the window and a three-plane monitor in
/// the bottom slab, like the bend's `refl` and `trans` — from data
/// condensed into the slab cache (`SimWorkspace::solve_terms`). Both
/// include the solve's backward-error check. `scripts/bench.sh` records
/// the two medians ungated.
fn bench_window_solve(c: &mut Criterion) {
    let bend = bending();
    let (grid, omega) = (bend.grid, bend.omega);
    let (dr, dc) = bend.design_shape;
    let rho = Array2::from_fn(dr, dc, |r, c| if (r + c) % 3 == 0 { 0.8 } else { 0.5 });
    let eps = assemble_eps(&bend.background_solid, bend.design_origin, &rho, T_NOMINAL);
    let mut jz = vec![Complex64::ZERO; grid.n()];
    for iy in 34..46 {
        jz[grid.idx(16, iy)] = Complex64::ONE;
    }
    let mut b = vec![Complex64::ZERO; grid.n()];
    scale_source_into(&grid, &SFactors::new(&grid, omega), omega, &jz, &mut b);
    let line = |iy: usize| LinearForm {
        weights: (36..44)
            .map(|ix| (grid.idx(ix, iy), Complex64::new(0.5, 0.1)))
            .collect(),
    };
    let mut trans = line(62);
    trans
        .weights
        .extend(line(63).weights.into_iter().chain(line(64).weights));
    let terms = Arc::new(WindowTerms::new(
        &grid,
        omega,
        b.clone(),
        vec![(0, line(30)), (0, trans)],
    ));
    let rows = bend.design_origin.0..bend.design_origin.0 + dr;
    let mut group = c.benchmark_group("window_solve_80x80");
    group.sample_size(10);
    let mut full = SimWorkspace::new();
    full.set_window_rows(Some(rows.clone()));
    full.factor(grid, omega, &eps).unwrap();
    let mut x = b.clone();
    group.bench_function("full", |bch| {
        bch.iter(|| {
            x.copy_from_slice(&b);
            full.solve_block(&mut x, 1).unwrap();
            black_box(&x);
        })
    });
    let mut condensed = SimWorkspace::new();
    condensed.set_window_rows(Some(rows));
    condensed
        .factor_terms(grid, &eps, &terms, false, None)
        .unwrap();
    let (mut fields, mut amps) = (Vec::new(), Vec::new());
    group.bench_function("condensed", |bch| {
        bch.iter(|| {
            condensed.solve_terms(&mut fields, &mut amps).unwrap();
            black_box(&amps);
        })
    });
    assert_eq!(full.last_report().window_fallbacks, 0);
    assert_eq!(condensed.last_report().window_fallbacks, 0);
    group.finish();
}

/// The Schur complement `S = A_WW − A_WA·A_AA⁻¹·A_AW − A_WB·A_BB⁻¹·A_BW`
/// of the operator with diagonal `diag` on the window unknowns `rows`
/// (whole grid rows), with the half-width `nx` band of `A_WW`: each slab
/// couples only to the window's adjacent grid row, through the trailing
/// `nx×nx` block of its inverse (the bottom slab factored in reversed
/// order, so its rows next to the window come last too).
fn window_schur(
    stencil: &StencilCache,
    diag: &[Complex64],
    nx: usize,
    rows: std::ops::Range<usize>,
) -> BandedMatrix {
    let n = stencil.n();
    let mut full = BandedMatrix::new(n, nx, nx);
    stencil.assemble_block_with_diag(diag, 0..n, false, 0, &mut full);
    let mut s = BandedMatrix::new(rows.len(), nx, nx);
    stencil.assemble_block_with_diag(diag, rows.clone(), false, 0, &mut s);
    // (slab rows, reversed, first window row, the slab's adjacent row)
    for (slab, reversed, w0, a0) in [
        (0..rows.start, false, rows.start, rows.start - nx),
        (rows.end..n, true, rows.end - nx, rows.end),
    ] {
        let mut ldl = BandedLdl::placeholder();
        ldl.refactor(slab.len(), nx, 0, |a, start| {
            stencil.assemble_lower_with_diag(diag, slab.clone(), reversed, start, a)
        })
        .unwrap();
        let mut inv = vec![Complex64::ZERO; nx * nx];
        ldl.trailing_inverse_block(nx, &mut inv);
        // Slab unknown a0 + k sits at trailing index k (top) or
        // nx − 1 − k (bottom, reversed).
        let t = |k: usize| if reversed { nx - 1 - k } else { k };
        for j in 0..nx {
            for i in 0..nx {
                let v = full.get(w0 + i, a0 + i) * inv[t(j) * nx + t(i)] * full.get(a0 + j, w0 + j);
                let (si, sj) = (w0 + i - rows.start, w0 + j - rows.start);
                s.add(si, sj, -v);
            }
        }
    }
    s
}

/// The acceptance benchmark of the zero-allocation pipeline: one full
/// variation-corner loop (four permittivities, each factored once and
/// solved forward + adjoint) through
///
/// * `naive_alloc_per_call` — the seed's path: fresh `SFactors`, fresh
///   band allocation, the scalar `reference` kernel, per-call RHS
///   vectors; vs
/// * `workspace_pipeline` — cached `SFactors`, reused band/factor/RHS
///   buffers and the vectorised kernels via `SimWorkspace`.
///
/// `scripts/bench.sh` extracts the two medians into `BENCH_solver.json`
/// and reports the speedup (target ≥ 1.5×).
fn bench_corner_loop(c: &mut Criterion) {
    let (grid, _, eps0, omega) = setup(64);
    // Four corner permittivities (temperature-like diagonal shifts).
    let corners: Vec<Array2<f64>> = (0..4)
        .map(|k| eps0.map(|&e| if e > 1.0 { e + 0.05 * k as f64 } else { e }))
        .collect();
    let mut jz = vec![Complex64::ZERO; grid.n()];
    for iy in 27..37 {
        jz[grid.idx(14, iy)] = Complex64::ONE;
    }
    let g: Vec<Complex64> = (0..grid.n())
        .map(|k| Complex64::new((k as f64 * 0.013).sin(), (k as f64 * 0.007).cos()))
        .collect();

    let mut group = c.benchmark_group("corner_loop");
    group.sample_size(10);
    group.bench_function("naive_alloc_per_call", |b| {
        b.iter(|| {
            let mut acc = Complex64::ZERO;
            for eps in &corners {
                let s = SFactors::new(&grid, omega);
                let a = assemble_banded(&grid, &s, eps, omega);
                let lu = reference::factor(a).unwrap();
                let mut fwd = scale_source(&grid, &s, omega, &jz);
                reference::solve(&lu, &mut fwd);
                let mut adj = g.to_vec();
                reference::solve(&lu, &mut adj);
                acc += fwd[grid.n() / 2] + adj[grid.n() / 2];
            }
            black_box(acc)
        })
    });
    group.bench_function("workspace_pipeline", |b| {
        let mut ws = SimWorkspace::new();
        let mut fwd = vec![Complex64::ZERO; grid.n()];
        let mut adj = vec![Complex64::ZERO; grid.n()];
        b.iter(|| {
            let mut acc = Complex64::ZERO;
            for eps in &corners {
                ws.factor(grid, omega, eps).unwrap();
                scale_source_into(&grid, ws.sfactors(), omega, &jz, &mut fwd);
                ws.solve_block(&mut fwd, 1).unwrap();
                adj.copy_from_slice(&g);
                ws.solve_block(&mut adj, 1).unwrap();
                acc += fwd[grid.n() / 2] + adj[grid.n() / 2];
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// Criterion sweep behind the [`boson_num::banded::RHS_BLOCK`] choice:
/// solve a 64-column batch (a multi-wavelength-sweep shape) with various
/// RHS block sizes. Columns are independent, so every block size is
/// bit-identical — only the cache behaviour differs.
fn bench_rhs_blocking(c: &mut Criterion) {
    let (grid, s, eps, omega) = setup(64);
    let lu = assemble_banded(&grid, &s, &eps, omega).factor().unwrap();
    let n = grid.n();
    let nrhs = 64;
    let b0: Vec<Complex64> = (0..n * nrhs)
        .map(|k| Complex64::new((k as f64 * 0.01).sin(), (k as f64 * 0.003).cos()))
        .collect();
    let mut group = c.benchmark_group("solve_many_rhs_blocking");
    group.sample_size(10);
    for block in [4usize, 8, 16, 32, 64] {
        group.bench_function(&format!("block_{block}"), |bench| {
            let mut b = b0.clone();
            bench.iter(|| {
                b.copy_from_slice(&b0);
                lu.solve_many_blocked(&mut b, nrhs, block);
                black_box(b[n / 2])
            })
        });
    }
    group.finish();
}

/// Micro view of the tentpole: one perturbed-corner forward+adjoint pair
/// solved by a fresh direct factorisation vs the nominal-factor-
/// preconditioned iterative path (per-corner, no batching — the batched
/// sweep is measured end-to-end in `corner_scaling`).
fn bench_corner_solve(c: &mut Criterion) {
    let (grid, _, eps0, omega) = setup(64);
    let nominal = eps0.clone();
    let corner_eps = eps0.map(|&e| if e > 1.0 { e + 0.04 } else { e });
    let g: Vec<Complex64> = (0..grid.n())
        .map(|k| Complex64::new((k as f64 * 0.013).sin(), (k as f64 * 0.007).cos()))
        .collect();
    let mut group = c.benchmark_group("corner_solve");
    group.sample_size(10);
    group.bench_function("direct_refactor", |b| {
        let mut ws = SimWorkspace::new();
        let mut x = g.clone();
        b.iter(|| {
            ws.prepare_corner(grid, omega, &corner_eps, SolverStrategy::Direct, None)
                .unwrap();
            x.copy_from_slice(&g);
            ws.solve_block(&mut x, 1).unwrap();
            black_box(x[grid.n() / 2])
        })
    });
    group.bench_function("nominal_precond_iterative", |b| {
        let mut ws = SimWorkspace::new();
        let mut x = g.clone();
        let mut epoch = 0u64;
        b.iter(|| {
            // A fresh epoch each round so the nominal factorisation cost
            // is included, exactly like the direct side.
            epoch += 1;
            let ctx = CornerContext {
                nominal_eps: &nominal,
                epoch,
                is_nominal: false,
                force_direct: false,
                terms: None,
            };
            ws.prepare_corner(
                grid,
                omega,
                &corner_eps,
                SolverStrategy::preconditioned_iterative(),
                Some(&ctx),
            )
            .unwrap();
            x.copy_from_slice(&g);
            ws.solve_block(&mut x, 1).unwrap();
            black_box(x[grid.n() / 2])
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_assembly, bench_factor_and_solve, bench_refactor, bench_window_solve,
        bench_corner_loop, bench_rhs_blocking, bench_corner_solve
}
criterion_main!(benches);
