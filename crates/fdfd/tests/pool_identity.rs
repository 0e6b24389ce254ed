//! Worker-count bit-identity of the pooled fused sweep.
//!
//! The fused (corner × ω) lockstep batch dispatches its preconditioner
//! half-sweeps and per-column Krylov stages on the process-wide `boson_num::pool`. The substrate's contract is that
//! the worker count **never changes results**: parts are contiguous
//! column chunks whose content depends only on the batch shape, never on
//! which lane executes them. These regression tests pin that contract
//! through the public solve paths at 1 ↔ 2 ↔ 8 workers — the banded
//! fused sweep, the recycled + lagged cross-epoch path, and the direct
//! corner fan-out whose lanes factor over slab pairs handed from one
//! cache, full-field and window-only.

use boson_fdfd::grid::SimGrid;
use boson_fdfd::monitor::LinearForm;
use boson_fdfd::sim::{
    FactorLag, FusedRecycle, SimWorkspace, SolverStrategy, FUSED_SPLIT_MIN_COLS,
};
use boson_fdfd::window::WindowTerms;
use boson_num::krylov::RecycleSpace;
use boson_num::pool::{self, DisjointSlots};
use boson_num::{Array2, Complex64};
use std::sync::Arc;

const LAMBDA: f64 = 1.55;

fn omega_c() -> f64 {
    2.0 * std::f64::consts::PI / LAMBDA
}

fn waveguide(grid: &SimGrid) -> Array2<f64> {
    let cy = grid.ny / 2;
    Array2::from_fn(grid.ny, grid.nx, |iy, _| {
        if iy.abs_diff(cy) < 3 {
            12.11
        } else {
            1.0
        }
    })
}

fn corner_family(nominal: &Array2<f64>, ncorner: usize) -> Vec<Array2<f64>> {
    (0..ncorner)
        .map(|k| {
            let bump = 0.01 + 0.007 * k as f64;
            nominal.map(|&e| if e > 1.0 { e + bump } else { e })
        })
        .collect()
}

fn rhs_block(n: usize, cols: usize) -> Vec<Complex64> {
    (0..n * cols)
        .map(|k| Complex64::new((k as f64 * 0.013).sin(), (k as f64 * 0.007).cos()))
        .collect()
}

/// One complete fused sweep (fresh workspace) at the given worker count;
/// returns the solution block and the per-corner reports.
fn sweep_on(
    grid: SimGrid,
    omegas: &[f64],
    nominal: &Array2<f64>,
    corners: &[Array2<f64>],
    strategy: SolverStrategy,
    threads: usize,
) -> (Vec<Complex64>, Vec<boson_fdfd::sim::CornerSolveReport>) {
    let n = grid.n();
    let total = corners.len() * omegas.len();
    let rhs = rhs_block(n, total);
    let mut ws = SimWorkspace::new();
    ws.fused_batch_begin(grid, omegas, nominal, 1, strategy)
        .expect("nominal factorisation failed");
    for oi in 0..omegas.len() {
        for eps in corners {
            ws.fused_batch_push(eps, oi);
        }
    }
    let mut x = vec![Complex64::ZERO; n * total];
    ws.fused_batch_solve(&rhs, &mut x, 1, false, threads, None);
    (x, ws.batch_reports().to_vec())
}

#[test]
fn banded_fused_sweep_bit_identical_across_1_2_8_workers() {
    let grid = SimGrid::new(26, 22, 0.05, 5);
    let nominal = waveguide(&grid);
    // 6 corners × 3 ω = 18 packed columns ≥ FUSED_SPLIT_MIN_COLS, so the
    // multi-worker runs genuinely split their preconditioner sweeps.
    let corners = corner_family(&nominal, 6);
    let omegas: Vec<f64> = [1.0, 1.02, 0.98].iter().map(|s| omega_c() * s).collect();
    assert!(corners.len() * omegas.len() >= FUSED_SPLIT_MIN_COLS);
    let strategy = SolverStrategy::PreconditionedIterative {
        tol: 1e-6,
        max_iters: 24,
    };

    let (x1, r1) = sweep_on(grid, &omegas, &nominal, &corners, strategy, 1);
    assert!(r1.iter().all(|r| r.converged), "reference sweep missed");
    for threads in [2usize, 8] {
        let (xt, rt) = sweep_on(grid, &omegas, &nominal, &corners, strategy, threads);
        assert!(x1 == xt, "{threads}-worker banded sweep diverged bitwise");
        assert!(r1 == rt, "{threads}-worker banded reports diverged");
    }
}

/// Two optimiser epochs of the recycled + lagged fused pipeline at one
/// worker count: epoch 0 cold (harvesting corrections), epoch 1 on a
/// drifted nominal with the lag policy keeping the stale factor and the
/// recycle stores improving every warm start. Returns both epochs'
/// solutions concatenated.
fn recycled_lagged_protocol(threads: usize) -> Vec<Complex64> {
    let grid = SimGrid::new(26, 22, 0.05, 5);
    let n = grid.n();
    let nominal0 = waveguide(&grid);
    let corners0 = corner_family(&nominal0, 6);
    let omegas: Vec<f64> = [1.0, 1.02, 0.98].iter().map(|s| omega_c() * s).collect();
    let total = corners0.len() * omegas.len();
    let rhs = rhs_block(n, total);
    let strategy = SolverStrategy::PreconditionedIterative {
        tol: 1e-8,
        max_iters: 40,
    };

    let mut ws = SimWorkspace::new();
    ws.set_factor_lag(Some(FactorLag {
        max_lag: 100,
        drift_tol: 0.05,
    }));
    let mut spaces: Vec<RecycleSpace> = (0..total).map(|_| RecycleSpace::new(4)).collect();
    let keys: Vec<usize> = (0..total).collect();

    let mut out = Vec::new();
    for epoch in 0..2u64 {
        // A tiny cross-epoch drift (under drift_tol): the lag policy
        // keeps the epoch-0 factor, the recycle stores carry over.
        let drift = 0.001 * epoch as f64;
        let nominal = nominal0.map(|&e| if e > 1.0 { e + drift } else { e });
        let corners: Vec<Array2<f64>> = corners0
            .iter()
            .map(|c| c.map(|&e| if e > 1.0 { e + drift } else { e }))
            .collect();
        ws.fused_batch_begin(grid, &omegas, &nominal, epoch, strategy)
            .expect("nominal factorisation failed");
        for oi in 0..omegas.len() {
            for eps in &corners {
                ws.fused_batch_push(eps, oi);
            }
        }
        let mut x = vec![Complex64::ZERO; n * total];
        ws.fused_batch_solve(
            &rhs,
            &mut x,
            1,
            false,
            threads,
            Some(FusedRecycle {
                spaces: &mut spaces,
                keys: &keys,
                epoch,
            }),
        );
        assert!(
            ws.batch_reports().iter().all(|r| r.converged),
            "recycled epoch {epoch} missed at {threads} workers"
        );
        out.extend_from_slice(&x);
    }
    out
}

#[test]
fn recycled_lagged_fused_sweep_bit_identical_across_1_2_8_workers() {
    let reference = recycled_lagged_protocol(1);
    for threads in [2usize, 8] {
        let got = recycled_lagged_protocol(threads);
        assert!(
            reference == got,
            "{threads}-worker recycled+lagged pipeline diverged bitwise"
        );
    }
}

/// Design-window grid rows of [`window_corners`].
const WINDOW_ROWS: std::ops::Range<usize> = 12..22;

/// Six direct corners of a small crossing-like device: three axial
/// temperatures (every slab changes with them) × two design patterns.
fn window_corners(grid: &SimGrid) -> Vec<Array2<f64>> {
    let mut out = Vec::new();
    for t in [250.0, 300.0, 350.0] {
        let n_si = 3.48 + 1.8e-4 * (t - 300.0);
        let si = n_si * n_si;
        for pattern in [0.0, 0.7] {
            out.push(Array2::from_fn(grid.ny, grid.nx, |iy, ix| {
                let design = WINDOW_ROWS.contains(&iy) && (12..24).contains(&ix);
                let guide = (15..19).contains(&iy) || (16..20).contains(&ix);
                if design {
                    1.0 + (si - 1.0)
                        * (0.5 + 0.5 * (0.4 * ix as f64 + 0.3 * iy as f64 + pattern).sin())
                } else if guide {
                    si
                } else {
                    1.0
                }
            }));
        }
    }
    out
}

/// The direct corner fan-out as `boson_core::compiled` runs it, at up
/// to `lanes` pool lanes: one workspace per lane, every corner's slab
/// pair looked up or built on lane 0's workspace first and handed to the
/// lane that factors the corner. Returns every corner's forward + adjoint
/// solutions, in corner order.
fn direct_fan_out(grid: SimGrid, corners: &[Array2<f64>], lanes: usize) -> Vec<Vec<Complex64>> {
    let omega = omega_c();
    let n = grid.n();
    let pool = pool::global();
    let lanes = lanes.min(corners.len()).min(pool.lanes()).max(1);
    let mut workspaces: Vec<SimWorkspace> = (0..lanes)
        .map(|_| {
            let mut ws = SimWorkspace::new();
            ws.set_window_rows(Some(WINDOW_ROWS));
            ws
        })
        .collect();
    // Full-field solves on the handed pairs; the terms only name the
    // slabs' wavelength.
    let terms = Arc::new(WindowTerms::new(&grid, omega, rhs_block(n, 1), Vec::new()));
    let pairs: Vec<_> = corners
        .iter()
        .map(|e| workspaces[0].slab_pair(grid, lanes, e, &terms, true))
        .collect();
    let mut outs: Vec<Vec<Complex64>> = vec![Vec::new(); corners.len()];
    {
        let lane_ws = DisjointSlots::new(&mut workspaces);
        let slots = DisjointSlots::new(&mut outs);
        pool.run(corners.len(), lanes, &|lane, part| {
            // SAFETY: each part runs exactly once, so output slot `part`
            // has one writer, and lane `lane` is owned by one OS thread
            // for the dispatch, so its workspace is never aliased.
            let (ws, out) = unsafe { (lane_ws.get(lane), slots.get(part)) };
            ws.factor_terms(grid, &corners[part], &terms, true, pairs[part].as_ref())
                .unwrap();
            let mut x = rhs_block(n, 2);
            ws.solve_block(&mut x[..n], 1).unwrap();
            ws.solve_block(&mut x[n..], 1).unwrap();
            assert_eq!(ws.last_report().window_fallbacks, 0);
            *out = x;
        });
    }
    outs
}

#[test]
fn direct_window_fan_out_bit_identical_across_1_2_8_lanes() {
    let grid = SimGrid::new(36, 34, 0.05, 6);
    let corners = window_corners(&grid);
    let reference = direct_fan_out(grid, &corners, 1);
    for lanes in [2usize, 8] {
        let got = direct_fan_out(grid, &corners, lanes);
        assert!(
            reference == got,
            "{lanes}-lane direct fan-out diverged bitwise"
        );
    }
    // A second sweep on the warm lanes (resumed window factors) is the
    // first one, too.
    let mut ws = SimWorkspace::new();
    ws.set_window_rows(Some(WINDOW_ROWS));
    for (eps, want) in corners.iter().zip(&reference) {
        ws.factor(grid, omega_c(), eps).unwrap();
        let mut x = rhs_block(grid.n(), 2);
        let n = grid.n();
        ws.solve_block(&mut x[..n], 1).unwrap();
        ws.solve_block(&mut x[n..], 1).unwrap();
        assert!(&x == want, "a serial workspace diverged from the fan-out");
    }
}

/// [`direct_fan_out`] on the window-only path: every corner prepared for
/// fixed right-hand sides and output forms (corner 0 also full-field, as
/// the runner's nominal entry), slab pairs handed from lane 0's
/// workspace. Returns each corner's window fields, readings and
/// window adjoints.
fn window_only_fan_out(
    grid: SimGrid,
    corners: &[Array2<f64>],
    lanes: usize,
) -> Vec<Vec<Complex64>> {
    let n = grid.n();
    let pool = pool::global();
    let lanes = lanes.min(corners.len()).min(pool.lanes()).max(1);
    let form = |iy: usize| LinearForm {
        weights: (8..28)
            .map(|ix| (grid.idx(ix, iy), Complex64::new(0.3, 0.2 * ix as f64)))
            .collect(),
    };
    let forms = vec![(0, form(17)), (0, form(27)), (1, form(5))];
    let terms = Arc::new(WindowTerms::new(&grid, omega_c(), rhs_block(n, 2), forms));
    let mut workspaces: Vec<SimWorkspace> = (0..lanes)
        .map(|_| {
            let mut ws = SimWorkspace::new();
            ws.set_window_rows(Some(WINDOW_ROWS));
            ws
        })
        .collect();
    let pairs: Vec<_> = corners
        .iter()
        .enumerate()
        .map(|(i, e)| workspaces[0].slab_pair(grid, lanes, e, &terms, i == 0))
        .collect();
    let mut outs: Vec<Vec<Complex64>> = vec![Vec::new(); corners.len()];
    {
        let lane_ws = DisjointSlots::new(&mut workspaces);
        let slots = DisjointSlots::new(&mut outs);
        pool.run(corners.len(), lanes, &|lane, part| {
            // SAFETY: as in `direct_fan_out`.
            let (ws, out) = unsafe { (lane_ws.get(lane), slots.get(part)) };
            ws.factor_terms(
                grid,
                &corners[part],
                &terms,
                part == 0,
                pairs[part].as_ref(),
            )
            .unwrap();
            let (mut fields, mut amps, mut lambdas) = (Vec::new(), Vec::new(), Vec::new());
            ws.solve_terms(&mut fields, &mut amps).unwrap();
            let coef: Vec<Complex64> = amps.iter().map(|a| a.conj()).collect();
            ws.solve_terms_adjoint(&coef, &mut lambdas).unwrap();
            assert_eq!(ws.last_report().window_fallbacks, 0);
            *out = fields.into_iter().chain(amps).chain(lambdas).collect();
        });
    }
    outs
}

#[test]
fn window_only_fan_out_bit_identical_across_1_2_8_lanes() {
    let grid = SimGrid::new(36, 34, 0.05, 6);
    let corners = window_corners(&grid);
    let reference = window_only_fan_out(grid, &corners, 1);
    for lanes in [2usize, 8] {
        assert!(
            reference == window_only_fan_out(grid, &corners, lanes),
            "{lanes}-lane window-only fan-out diverged bitwise"
        );
    }
}
