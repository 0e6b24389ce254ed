//! Regression tests of the lagged-nominal-factor policy
//! ([`boson_fdfd::sim::FactorLag`]): a drift of the nominal operator
//! diagonal past `drift_tol` must force a refactor, and the refactored
//! epoch must be bit-identical to the eager (no-lag) pipeline — the lag
//! is a scheduling policy, never a physics change.

use boson_fdfd::grid::SimGrid;
use boson_fdfd::sim::{FactorLag, SimWorkspace, SolverStrategy};
use boson_num::{Array2, Complex64};

fn waveguide(grid: &SimGrid, core: f64) -> Array2<f64> {
    Array2::from_fn(grid.ny, grid.nx, |iy, _| {
        if iy.abs_diff(grid.ny / 2) < 4 {
            core
        } else {
            1.0
        }
    })
}

/// One batched single-ω corner sweep at `epoch` against `nominal`;
/// returns the factorisation count reported by `fused_batch_begin` and the
/// solution block.
fn sweep(
    ws: &mut SimWorkspace,
    grid: SimGrid,
    omega: f64,
    nominal: &Array2<f64>,
    epoch: u64,
    rhs: &[Complex64],
) -> (usize, Vec<Complex64>) {
    let strategy = SolverStrategy::preconditioned_iterative();
    let factorizations = ws
        .fused_batch_begin(grid, &[omega], nominal, epoch, strategy)
        .expect("nominal factorisation failed");
    for k in 1..4 {
        let eps = nominal.map(|&e| if e > 1.0 { e + 0.01 * k as f64 } else { e });
        ws.fused_batch_push(&eps, 0);
    }
    let n = grid.n();
    let mut x = vec![Complex64::ZERO; n * 3];
    ws.fused_batch_solve(rhs, &mut x, 1, false, 1, None);
    assert!(
        ws.batch_reports().iter().all(|r| r.converged),
        "sweep at epoch {epoch} did not converge"
    );
    (factorizations, x)
}

#[test]
fn diagonal_drift_past_tolerance_forces_a_refactor_bit_identical_to_eager() {
    let grid = SimGrid::new(48, 40, 0.05, 8);
    let omega = 2.0 * std::f64::consts::PI / 1.55;
    let n = grid.n();
    let g: Vec<Complex64> = (0..n)
        .map(|k| Complex64::new((k as f64 * 0.01).sin(), (k as f64 * 0.02).cos()))
        .collect();
    let mut rhs = vec![Complex64::ZERO; n * 3];
    for c in 0..3 {
        rhs[c * n..(c + 1) * n].copy_from_slice(&g);
    }

    // Generous age budget: only the drift monitor decides below.
    let lag = FactorLag {
        max_lag: 100,
        drift_tol: 0.01,
    };
    let mut lagged = SimWorkspace::new();
    lagged.set_factor_lag(Some(lag));
    let mut eager = SimWorkspace::new();

    // Epoch 0: both factor the same fresh nominal — identical paths,
    // bitwise-identical solutions.
    let nominal0 = waveguide(&grid, 12.11);
    let (f_lag, x_lag) = sweep(&mut lagged, grid, omega, &nominal0, 0, &rhs);
    let (f_eag, x_eag) = sweep(&mut eager, grid, omega, &nominal0, 0, &rhs);
    assert_eq!((f_lag, f_eag), (1, 1));
    assert_eq!(x_lag, x_eag, "fresh-factor epoch must be bit-identical");

    // Epoch 1: a tiny nominal drift (well under drift_tol): the lagged
    // workspace keeps its epoch-0 factor (0 factorisations) while the
    // eager one rebuilds. Both converge to the same tolerance-accurate
    // solution of the *same* drifted physics.
    let nominal1 = waveguide(&grid, 12.11 + 0.01);
    let (f_lag, x_lag) = sweep(&mut lagged, grid, omega, &nominal1, 1, &rhs);
    let (f_eag, x_eag) = sweep(&mut eager, grid, omega, &nominal1, 1, &rhs);
    assert_eq!(
        (f_lag, f_eag),
        (0, 1),
        "sub-tolerance drift must keep the stale factor"
    );
    let scale: f64 = x_eag.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
    let err: f64 = x_lag
        .iter()
        .zip(&x_eag)
        .map(|(p, q)| (*p - *q).norm_sqr())
        .sum::<f64>()
        .sqrt();
    assert!(
        err <= 1e-4 * (1.0 + scale),
        "stale-factor epoch drifted from eager: {err}"
    );

    // Epoch 2: the nominal jumps far past drift_tol — the lagged
    // workspace MUST refactor (the drift trip), and having rebuilt from
    // the same diagonal as the eager pipeline, this epoch is again
    // bit-identical to it.
    let nominal2 = waveguide(&grid, 24.0);
    let (f_lag, x_lag) = sweep(&mut lagged, grid, omega, &nominal2, 2, &rhs);
    let (f_eag, x_eag) = sweep(&mut eager, grid, omega, &nominal2, 2, &rhs);
    assert_eq!(f_eag, 1);
    assert_eq!(f_lag, 1, "drift past drift_tol must force a refactor");
    assert_eq!(x_lag, x_eag, "refactored epoch must be bit-identical");

    // And the refreshed factor is kept again on the next quiet epoch.
    let (f_lag, _) = sweep(&mut lagged, grid, omega, &nominal2, 3, &rhs);
    assert_eq!(f_lag, 0, "quiet epoch after the trip must keep the factor");
}

#[test]
fn factor_age_past_max_lag_forces_a_refactor() {
    let grid = SimGrid::new(48, 40, 0.05, 8);
    let omega = 2.0 * std::f64::consts::PI / 1.55;
    let n = grid.n();
    let g: Vec<Complex64> = (0..n)
        .map(|k| Complex64::new((k as f64 * 0.01).sin(), (k as f64 * 0.02).cos()))
        .collect();
    let mut rhs = vec![Complex64::ZERO; n * 3];
    for c in 0..3 {
        rhs[c * n..(c + 1) * n].copy_from_slice(&g);
    }
    let mut ws = SimWorkspace::new();
    ws.set_factor_lag(Some(FactorLag {
        max_lag: 2,
        drift_tol: 0.5,
    }));
    let nominal = waveguide(&grid, 12.11);
    // Epoch 0 factors; epochs 1 and 2 ride the kept factor (age 1, 2);
    // epoch 3 exceeds max_lag and must rebuild.
    let expected = [1usize, 0, 0, 1, 0];
    for (epoch, &want) in expected.iter().enumerate() {
        let (f, x) = sweep(&mut ws, grid, omega, &nominal, epoch as u64, &rhs);
        assert_eq!(f, want, "epoch {epoch}");
        assert!(x.iter().any(|v| v.abs() > 0.0));
    }
}
