//! Property test: the fused (corner × ω) lockstep batch is bit-identical
//! to K single-ω batches.
//!
//! Columns of a lockstep BiCGSTAB batch are coupled only through sweep
//! *packing*, never through values, and every fused column runs exactly
//! the single-ω batch's arithmetic — its own ω's stencil apply, its own
//! ω's nominal-factor preconditioner sweep. This test drives that claim over
//! random corner families, wavelength counts, right-hand sides and
//! iteration budgets — including starved budgets where a hard corner
//! *misses* and is reported unconverged (the caller's direct-fallback
//! trigger), and a second solve on the same batch (the adjoint pattern,
//! which merges into the same per-corner reports).

use boson_fdfd::grid::SimGrid;
use boson_fdfd::sim::{SimWorkspace, SolverStrategy};
use boson_num::{Array2, Complex64};
use proptest::prelude::*;

const LAMBDA: f64 = 1.55;

fn omega_c() -> f64 {
    2.0 * std::f64::consts::PI / LAMBDA
}

/// Deterministic pseudo-random stream (same xorshift family as the
/// solver unit tests).
struct Stream(u64);

impl Stream {
    fn next_unit(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn fused_cross_omega_batch_matches_per_omega_batches_bitwise(
        seed in 0u64..1_000_000,
        nomega in 1usize..4,
        ncorner in 2usize..5,
        cols_per_corner in 1usize..3,
        scale in 0.005f64..0.05,
        starve_sel in 0usize..2,
    ) {
        let starve = starve_sel == 1;
        let grid = SimGrid::new(26, 22, 0.05, 5);
        let n = grid.n();
        let nominal = waveguide(&grid);
        let mut stream = Stream(seed | 1);
        // Random temperature/litho-style corner family; when starving the
        // budget, the last corner is violently perturbed so it must miss.
        let mut corners: Vec<Array2<f64>> = (0..ncorner)
            .map(|_| {
                let bump = scale * (0.5 + stream.next_unit());
                nominal.map(|&e| if e > 1.0 { e + bump } else { e })
            })
            .collect();
        if starve {
            let hard = corners.last_mut().unwrap();
            for iy in 0..grid.ny / 2 {
                for ix in 0..grid.nx {
                    hard[(iy, ix)] += 5.0;
                }
            }
        }
        let omegas: Vec<f64> = [1.0, 1.02, 0.98][..nomega]
            .iter()
            .map(|s| omega_c() * s)
            .collect();
        let (tol, max_iters) = if starve { (1e-10, 3) } else { (1e-6, 24) };
        let total = ncorner * nomega;
        let rhs: Vec<Complex64> = (0..n * total * cols_per_corner)
            .map(|k| {
                Complex64::new((k as f64 * 0.013).sin(), (k as f64 * 0.007).cos())
            })
            .collect();
        let bl = n * cols_per_corner;

        // Fused: every (corner, ω) pair in one lockstep batch, ω-major.
        let mut ws = SimWorkspace::new();
        ws.fused_batch_begin(grid, &omegas, &nominal, 1, SolverStrategy::PreconditionedIterative { tol, max_iters })
            .map_err(|e| TestCaseError::Fail(format!("{e:?}")))?;
        for oi in 0..nomega {
            for eps in &corners {
                ws.fused_batch_push(eps, oi);
            }
        }
        let mut x = vec![Complex64::ZERO; n * total * cols_per_corner];
        ws.fused_batch_solve(&rhs, &mut x, cols_per_corner, false, 1, None);
        let mut x2 = vec![Complex64::ZERO; n * total * cols_per_corner];
        ws.fused_batch_solve(&rhs, &mut x2, cols_per_corner, false, 1, None);
        prop_assert_eq!(ws.batch_reports().len(), total);

        // Per-ω reference: K separate single-ω batches, same corners and
        // budgets.
        for (oi, &om) in omegas.iter().enumerate() {
            let mut ws1 = SimWorkspace::new();
            ws1.fused_batch_begin(grid, &[om], &nominal, 1, SolverStrategy::PreconditionedIterative { tol, max_iters })
                .map_err(|e| TestCaseError::Fail(format!("{e:?}")))?;
            for eps in &corners {
                ws1.fused_batch_push(eps, 0);
            }
            let group = &rhs[oi * ncorner * bl..(oi + 1) * ncorner * bl];
            let mut x1 = vec![Complex64::ZERO; ncorner * bl];
            ws1.fused_batch_solve(group, &mut x1, cols_per_corner, false, 1, None);
            prop_assert!(
                x[oi * ncorner * bl..(oi + 1) * ncorner * bl] == *x1.as_slice(),
                "ω index {} forward phase diverged",
                oi
            );
            let mut x1b = vec![Complex64::ZERO; ncorner * bl];
            ws1.fused_batch_solve(group, &mut x1b, cols_per_corner, false, 1, None);
            prop_assert!(
                x2[oi * ncorner * bl..(oi + 1) * ncorner * bl] == *x1b.as_slice(),
                "ω index {} second phase diverged",
                oi
            );
            for c in 0..ncorner {
                let rf = &ws.batch_reports()[oi * ncorner + c];
                let rp = &ws1.batch_reports()[c];
                prop_assert!(rf == rp, "ω {} corner {} reports diverged", oi, c);
            }
        }
        // A starved budget must actually report the hard corner(s) as
        // budget misses — the signal the direct fallback keys on.
        if starve {
            prop_assert!(
                (0..nomega).all(|oi| !ws.batch_reports()[oi * ncorner + ncorner - 1].converged),
                "hard corner unexpectedly converged: {:?}",
                ws.batch_reports()
            );
        } else {
            prop_assert!(ws.batch_reports().iter().all(|r| r.converged));
        }
    }
}
