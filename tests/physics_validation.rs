//! Cross-crate physics validation: the direct FDFD solver against the
//! production Krylov solver, reciprocity, and frequency scaling.

use boson1::fdfd::grid::{Axis, Sign, SimGrid};
use boson1::fdfd::monitor::ModalMonitor;
use boson1::fdfd::operator::{assemble_banded, scale_source_into};
use boson1::fdfd::pml::SFactors;
use boson1::fdfd::port::Port;
use boson1::fdfd::sim::SimWorkspace;
use boson1::fdfd::source::ModalSource;
use boson1::num::krylov::{bicgstab_precond_many, IterativeOptions, KrylovWorkspace};
use boson1::num::{Array2, Complex64};

const OMEGA: f64 = 2.0 * std::f64::consts::PI / 1.55;

fn straight_wg(grid: &SimGrid) -> Array2<f64> {
    Array2::from_fn(grid.ny, grid.nx, |iy, _| {
        if iy.abs_diff(grid.ny / 2) < 4 {
            12.11
        } else {
            1.0
        }
    })
}

#[test]
fn direct_and_iterative_solvers_agree() {
    // Same operator, same right-hand sides: banded LU vs the production
    // BiCGSTAB. The operator is a perturbed corner (a lossy diagonal
    // shift of the waveguide operator); the Krylov solves are
    // preconditioned by the unshifted (nominal) factors, the pairing the
    // iterative corner strategy runs.
    let grid = SimGrid::new(30, 26, 0.05, 8);
    let s = SFactors::new(&grid, OMEGA);
    let eps = straight_wg(&grid);
    let nominal = assemble_banded(&grid, &s, &eps, OMEGA);
    let n = grid.n();
    let mut corner = nominal.clone();
    for i in 0..n {
        corner.add(i, i, Complex64::new(0.0, 25.0));
    }
    let mut precond = nominal.factor().unwrap();
    let lu = corner.clone().factor().unwrap();
    let nrhs = 2;
    let rhs: Vec<Complex64> = (0..n * nrhs)
        .map(|k| Complex64::new((k as f64 * 0.05).sin(), (k as f64 * 0.02).cos()))
        .collect();
    let opts = IterativeOptions {
        tol: 1e-12,
        max_iters: 200,
        ..IterativeOptions::default()
    };
    let mut ws = KrylovWorkspace::new();
    let rel_err = |x_direct: &[Complex64], x_iter: &[Complex64]| {
        let num: f64 = x_direct
            .iter()
            .zip(x_iter)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            .sqrt();
        let den: f64 = x_direct.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        num / den
    };

    let mut x_direct = rhs.clone();
    lu.solve_many(&mut x_direct, nrhs);
    let mut x_iter = vec![Complex64::ZERO; n * nrhs];
    let quality = bicgstab_precond_many(
        &corner,
        &mut precond,
        &rhs,
        &mut x_iter,
        nrhs,
        &opts,
        &mut ws,
    );
    assert!(quality.converged, "BiCGSTAB did not converge: {quality:?}");
    let err = rel_err(&x_direct, &x_iter);
    assert!(err < 1e-7, "solver disagreement: {err}");

    // The corner stays complex-symmetric, so the same forward solve
    // answers the adjoint (transpose) system too.
    let asym = corner.asymmetry();
    assert!(asym < 1e-13, "corner operator asymmetry = {asym}");
}

#[test]
fn reciprocity_left_to_right_equals_right_to_left() {
    // A passive linear device is reciprocal: transmission L→R equals R→L
    // for the same mode pair.
    let grid = SimGrid::new(60, 50, 0.05, 10);
    let mut eps = straight_wg(&grid);
    // Asymmetric scatterer in the middle.
    for iy in 20..24 {
        for ix in 28..36 {
            eps[(iy, ix)] = 12.11;
        }
    }
    let port_l = Port::new("l", Axis::X, 14, 10, 40);
    let port_r = Port::new("r", Axis::X, 45, 10, 40);
    let mode_l = port_l.solve_modes(&grid, &eps, OMEGA, 1).remove(0);
    let mode_r = port_r.solve_modes(&grid, &eps, OMEGA, 1).remove(0);
    let fwd_src = ModalSource::new(port_l.clone(), mode_l.clone(), Sign::Plus);
    let bwd_src = ModalSource::new(port_r.clone(), mode_r.clone(), Sign::Minus);

    // Both launches in one two-column block against one factorisation.
    let mut ws = SimWorkspace::new();
    ws.factor(grid, OMEGA, &eps).unwrap();
    let n = grid.n();
    let mut fields = vec![Complex64::ZERO; 2 * n];
    for (src, col) in [&fwd_src, &bwd_src]
        .into_iter()
        .zip(fields.chunks_exact_mut(n))
    {
        scale_source_into(&grid, ws.sfactors(), OMEGA, &src.current(&grid), col);
    }
    ws.solve_block(&mut fields, 2).unwrap();
    let (f_fwd, f_bwd) = fields.split_at(n);

    let mon_r = ModalMonitor::new(&grid, &port_r, &mode_r, Sign::Plus);
    let t_lr = mon_r.power(f_fwd);
    let mon_l = ModalMonitor::new(&grid, &port_l, &mode_l, Sign::Minus);
    let t_rl = mon_l.power(f_bwd);

    assert!(t_lr > 1e-8);
    assert!(
        (t_lr - t_rl).abs() / t_lr < 0.02,
        "reciprocity violated: {t_lr} vs {t_rl}"
    );
}

#[test]
fn mode_effective_index_between_cladding_and_core() {
    let grid = SimGrid::new(40, 40, 0.05, 8);
    let eps = straight_wg(&grid);
    let port = Port::new("p", Axis::X, 12, 8, 32);
    for count in 1..=2 {
        let modes = port.solve_modes(&grid, &eps, OMEGA, count);
        for m in &modes {
            assert!(m.neff > 1.0 && m.neff < 12.11f64.sqrt(), "neff {}", m.neff);
        }
    }
}

#[test]
fn higher_frequency_confines_mode_more() {
    let grid = SimGrid::new(40, 40, 0.05, 8);
    let eps = straight_wg(&grid);
    let port = Port::new("p", Axis::X, 12, 8, 32);
    let m1 = port.solve_modes(&grid, &eps, OMEGA, 1).remove(0);
    let m2 = port.solve_modes(&grid, &eps, OMEGA * 1.3, 1).remove(0);
    assert!(
        m2.neff > m1.neff,
        "effective index should grow with frequency: {} vs {}",
        m2.neff,
        m1.neff
    );
}
