//! Worker-count bit-identity of the pooled fused sweep.
//!
//! The fused (corner × ω) lockstep batch dispatches its preconditioner
//! half-sweeps and per-column Krylov stages on the process-wide `boson_num::pool`. The substrate's contract is that
//! the worker count **never changes results**: parts are contiguous
//! column chunks whose content depends only on the batch shape, never on
//! which lane executes them. These regression tests pin that contract
//! through the public solve paths at 1 ↔ 2 ↔ 8 workers — the banded
//! fused sweep and the recycled + lagged cross-epoch path.

use boson_fdfd::grid::SimGrid;
use boson_fdfd::sim::{
    FactorLag, FusedRecycle, SimWorkspace, SolverStrategy, FUSED_SPLIT_MIN_COLS,
};
use boson_num::krylov::RecycleSpace;
use boson_num::{Array2, Complex64};

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
    ws.fused_batch_solve(&rhs, &mut x, 1, false, threads);
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
        ws.fused_batch_solve_recycled(
            &rhs,
            &mut x,
            1,
            false,
            threads,
            FusedRecycle {
                spaces: &mut spaces,
                keys: &keys,
                epoch,
            },
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
