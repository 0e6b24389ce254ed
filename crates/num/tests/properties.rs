//! Property-based tests of the numerical kernels.

use boson_num::banded::{BandedLuF32, BandedMatrix};
use boson_num::fft::{fft, ifft};
use boson_num::jacobi::sym_eigen;
use boson_num::krylov::{
    bicgstab_precond_many, IterativeOptions, KrylovWorkspace, Precondition, RecycleSpace,
};
use boson_num::tridiag::SymTridiag;
use boson_num::{c64, Array2, Complex64};
use proptest::prelude::*;

/// The single-precision preconditioner as a [`Precondition`] engine: the
/// factor copy plus the conversion scratch its sweeps borrow.
struct F32Precond {
    lu: BandedLuF32,
    scratch: Vec<f32>,
}

impl Precondition for F32Precond {
    fn dim(&self) -> usize {
        self.lu.n()
    }

    fn solve_block(&mut self, b: &mut [Complex64], nrhs: usize) {
        self.lu.solve_many_with_scratch(&mut self.scratch, b, nrhs);
    }
}

fn complex_vec(len: usize) -> impl Strategy<Value = Vec<Complex64>> {
    proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), len..=len)
        .prop_map(|v| v.into_iter().map(|(re, im)| c64(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn complex_field_axioms(
        (ar, ai, br, bi, cr, ci) in (-1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6,
                                     -1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6)
    ) {
        let a = c64(ar, ai);
        let b = c64(br, bi);
        let c = c64(cr, ci);
        let d1 = a * (b + c);
        let d2 = a * b + a * c;
        prop_assert!((d1 - d2).abs() <= 1e-9 * (1.0 + d1.abs()));
        // Conjugation is an automorphism.
        let lhs = (a * b).conj();
        let rhs = a.conj() * b.conj();
        prop_assert!((lhs - rhs).abs() <= 1e-9 * (1.0 + lhs.abs()));
    }

    #[test]
    fn fft_round_trip(x in complex_vec(64)) {
        let mut y = x.clone();
        fft(&mut y);
        ifft(&mut y);
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).abs() < 1e-8 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn fft_is_linear(x in complex_vec(32), y in complex_vec(32)) {
        let mut fx = x.clone();
        let mut fy = y.clone();
        let mut fxy: Vec<Complex64> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        fft(&mut fx);
        fft(&mut fy);
        fft(&mut fxy);
        for i in 0..32 {
            let sum = fx[i] + fy[i];
            prop_assert!((fxy[i] - sum).abs() < 1e-7 * (1.0 + sum.abs()));
        }
    }

    #[test]
    fn fft_parseval(x in complex_vec(64)) {
        let e_time: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let mut f = x.clone();
        fft(&mut f);
        let e_freq: f64 = f.iter().map(|v| v.norm_sqr()).sum::<f64>() / 64.0;
        prop_assert!((e_time - e_freq).abs() < 1e-6 * (1.0 + e_time));
    }

    #[test]
    fn banded_lu_solves_diagonally_dominant_systems(
        entries in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 20 * 5),
        rhs in complex_vec(20)
    ) {
        let n = 20;
        let (kl, ku) = (2usize, 2usize);
        let mut a = BandedMatrix::new(n, kl, ku);
        let mut k = 0;
        for i in 0..n {
            for j in i.saturating_sub(kl)..=(i + ku).min(n - 1) {
                let (re, im) = entries[k % entries.len()];
                k += 1;
                let mut v = c64(re, im);
                if i == j {
                    v += c64(6.0, 1.0); // strict diagonal dominance
                }
                a.set(i, j, v);
            }
        }
        let lu = a.clone().factor().expect("dominant matrix is nonsingular");
        let x = lu.solve_vec(&rhs);
        let ax = a.matvec(&x);
        let res: f64 = ax.iter().zip(&rhs).map(|(p, q)| (*p - *q).norm_sqr()).sum::<f64>().sqrt();
        let scale: f64 = rhs.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
        prop_assert!(res <= 1e-8 * (1.0 + scale), "residual {res}");
    }

    #[test]
    fn tridiag_eigenpairs_satisfy_definition(
        diag in proptest::collection::vec(-5.0f64..5.0, 12..=12),
        off in proptest::collection::vec(-2.0f64..2.0, 11..=11)
    ) {
        let t = SymTridiag::new(diag, off);
        for pair in t.largest_eigenpairs(3) {
            let tv = t.matvec(&pair.vector);
            let res: f64 = tv.iter().zip(&pair.vector)
                .map(|(a, b)| (a - pair.value * b).powi(2)).sum::<f64>().sqrt();
            prop_assert!(res < 1e-6, "residual {res} at λ = {}", pair.value);
        }
    }

    #[test]
    fn sturm_count_is_monotone_nondecreasing(
        diag in proptest::collection::vec(-5.0f64..5.0, 10..=10),
        off in proptest::collection::vec(-2.0f64..2.0, 9..=9),
        a in -20.0f64..20.0,
        b in -20.0f64..20.0
    ) {
        let t = SymTridiag::new(diag, off);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(t.count_below(lo) <= t.count_below(hi));
    }

    #[test]
    fn jacobi_preserves_trace_and_orthonormality(
        vals in proptest::collection::vec(-3.0f64..3.0, 21..=21)
    ) {
        // Build a 6×6 symmetric matrix from 21 free entries.
        let n = 6;
        let mut a = Array2::zeros(n, n);
        let mut k = 0;
        for i in 0..n {
            for j in 0..=i {
                a[(i, j)] = vals[k];
                a[(j, i)] = vals[k];
                k += 1;
            }
        }
        let e = sym_eigen(&a, 100);
        let tr: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((tr - sum).abs() < 1e-8 * (1.0 + tr.abs()));
        for p in 0..n {
            for q in 0..=p {
                let dot: f64 = e.vectors.col(p).iter().zip(e.vectors.col(q)).map(|(x, y)| x * y).sum();
                let expect = if p == q { 1.0 } else { 0.0 };
                prop_assert!((dot - expect).abs() < 1e-8);
            }
        }
    }
}

/// Builds a strictly diagonally dominant banded matrix from flat entries.
fn dominant_banded(n: usize, kl: usize, ku: usize, entries: &[(f64, f64)]) -> BandedMatrix {
    let mut a = BandedMatrix::new(n, kl, ku);
    let mut k = 0;
    for i in 0..n {
        for j in i.saturating_sub(kl)..=(i + ku).min(n - 1) {
            let (re, im) = entries[k % entries.len()];
            k += 1;
            let mut v = c64(re, im);
            if i == j {
                v += c64(6.0 + (kl + ku) as f64, 1.0);
            }
            a.set(i, j, v);
        }
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // solve_many over a block ≡ column-by-column solve of the same RHS.
    #[test]
    fn solve_many_is_column_by_column_solve(
        entries in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 24 * 6),
        block in complex_vec(24 * 4)
    ) {
        let n = 24;
        let a = dominant_banded(n, 3, 2, &entries);
        let lu = a.factor().expect("dominant matrix is nonsingular");
        let mut batched = block.clone();
        lu.solve_many(&mut batched, 4);
        for r in 0..4 {
            let x = lu.solve_vec(&block[r * n..(r + 1) * n]);
            for (p, q) in x.iter().zip(&batched[r * n..(r + 1) * n]) {
                prop_assert!((*p - *q).abs() < 1e-10, "rhs {r}");
            }
        }
    }

    // Workspace reuse (refactoring one kept factor twice) ≡ fresh
    // allocations.
    #[test]
    fn workspace_reuse_equals_fresh_allocation(
        e1 in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 20 * 6),
        e2 in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 20 * 6),
        rhs in complex_vec(20)
    ) {
        use boson_num::banded::BandedLu;
        let n = 20;
        let (kl, ku) = (2, 3);
        let mut lu = BandedLu::placeholder();
        for entries in [&e1, &e2] {
            // Reused path.
            let fresh = dominant_banded(n, kl, ku, entries);
            lu.refactor(n, kl, ku, 0, |a, _| {
                for i in 0..n {
                    for j in i.saturating_sub(kl)..=(i + ku).min(n - 1) {
                        a.set(i, j, fresh.get(i, j));
                    }
                }
            })
            .expect("dominant matrix is nonsingular");
            let mut x_reused = rhs.clone();
            lu.solve(&mut x_reused);
            // Fresh-allocation path.
            let x_fresh = fresh.factor().unwrap().solve_vec(&rhs);
            for (p, q) in x_reused.iter().zip(&x_fresh) {
                prop_assert!((*p - *q).abs() < 1e-11);
            }
        }
    }

    // Nominal-factor-preconditioned BiCGSTAB agrees with the direct solve
    // of the perturbed operator to (well within) the configured
    // tolerance, for random diagonal perturbations of random strength —
    // the ε/temperature/etch corner shape — with both the f64 and the
    // f32 preconditioner.
    #[test]
    fn preconditioned_iterative_matches_direct_solve(
        entries in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 26 * 6),
        perturb in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 26),
        strength in 0.0f64..0.35,
        rhs in complex_vec(26)
    ) {
        let n = 26;
        let nominal = dominant_banded(n, 3, 2, &entries);
        let mut corner = nominal.clone();
        for (i, &(re, im)) in perturb.iter().enumerate() {
            corner.add(i, i, c64(strength * re, strength * im));
        }
        let mut m = nominal.factor().expect("dominant matrix is nonsingular");
        let direct = corner.clone().factor().expect("perturbed matrix is nonsingular");
        let tol = 1e-9;
        let opts = IterativeOptions { tol, max_iters: 60, use_initial_guess: false, threads: 1 };
        let mut ws = KrylovWorkspace::new();
        let xnorm = |v: &[Complex64]| v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();

        // Forward path, f64 preconditioner.
        let mut x = vec![Complex64::ZERO; n];
        let q = bicgstab_precond_many(&corner, &mut m, &rhs, &mut x, 1, &opts, &mut ws);
        prop_assert!(q.converged, "forward did not converge: {q:?}");
        let x_direct = direct.solve_vec(&rhs);
        let err = x.iter().zip(&x_direct).map(|(p, q)| (*p - *q).norm_sqr()).sum::<f64>().sqrt();
        prop_assert!(err <= 100.0 * tol * (1.0 + xnorm(&x_direct)), "forward error {err}");

        // f32 preconditioner at an ordinary tolerance.
        let mut m32 = F32Precond { lu: BandedLuF32::placeholder(), scratch: Vec::new() };
        m32.lu.assign_from(&m);
        let opts32 = IterativeOptions { tol: 1e-6, max_iters: 60, use_initial_guess: false, threads: 1 };
        let mut x32 = vec![Complex64::ZERO; n];
        let q32 = bicgstab_precond_many(&corner, &mut m32, &rhs, &mut x32, 1, &opts32, &mut ws);
        prop_assert!(q32.converged, "f32-preconditioned solve did not converge: {q32:?}");
        let err32 = x32.iter().zip(&x_direct).map(|(p, q)| (*p - *q).norm_sqr()).sum::<f64>().sqrt();
        prop_assert!(err32 <= 100.0 * 1e-6 * (1.0 + xnorm(&x_direct)), "f32 error {err32}");

        // Warm starts from the direct solution converge immediately and
        // change nothing about the answer.
        let mut xw = x_direct.clone();
        let qw = bicgstab_precond_many(
            &corner, &mut m, &rhs, &mut xw, 1,
            &IterativeOptions { use_initial_guess: true, ..opts }, &mut ws,
        );
        prop_assert!(qw.converged && qw.max_iterations == 0, "warm start iterated: {qw:?}");
    }

    // Cross-iteration Krylov recycling: a deflation store harvested from
    // the previous ε epoch's converged solves, Galerkin-projected onto
    // the next epoch's initial guess, yields the same solution as a
    // cold start — to (well within) the configured tolerance — across
    // random diagonal ε perturbations of random strength and drift. The
    // projection also never worsens the true initial residual (the store's commit
    // rule), so convergence is at worst the cold start's.
    #[test]
    fn recycled_start_bicgstab_matches_cold_start(
        entries in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 26 * 6),
        perturb in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 26),
        drift in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 26),
        strength in 0.0f64..0.3,
        rhs in complex_vec(26)
    ) {
        let n = 26;
        let nominal = dominant_banded(n, 3, 2, &entries);
        let mut m = nominal.clone().factor().expect("dominant matrix is nonsingular");
        let tol = 1e-9;
        let cold = IterativeOptions { tol, max_iters: 80, use_initial_guess: false, threads: 1 };
        let warm = IterativeOptions { use_initial_guess: true, ..cold };
        let mut ws = KrylovWorkspace::new();
        let xnorm = |v: &[Complex64]| v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();

        // Epoch 0 and its drifted successor: the ε-corner shape, a
        // random diagonal perturbation that moves a little per epoch.
        let mut corner0 = nominal.clone();
        let mut corner1 = nominal.clone();
        for i in 0..n {
            let (re, im) = perturb[i];
            corner0.add(i, i, c64(strength * re, strength * im));
            let (dre, dim) = drift[i];
            corner1.add(i, i, c64(strength * (re + 0.2 * dre), strength * (im + 0.2 * dim)));
        }

        let mut space = RecycleSpace::new(4);
        space.ensure_dim(n);

        // Epoch 0: converge cold, harvest the correction (the full
        // solution — the start was zero).
        let mut x0 = vec![Complex64::ZERO; n];
        let q0 = bicgstab_precond_many(&corner0, &mut m, &rhs, &mut x0, 1, &cold, &mut ws);
        prop_assert!(q0.converged, "epoch-0 solve did not converge: {q0:?}");
        space.harvest(&x0, 0);

        // Epoch 1, cold start: the reference.
        let mut x_cold = vec![Complex64::ZERO; n];
        let qc = bicgstab_precond_many(&corner1, &mut m, &rhs, &mut x_cold, 1, &cold, &mut ws);
        prop_assert!(qc.converged, "cold epoch-1 solve did not converge: {qc:?}");

        // Epoch 1, recycled start: Galerkin projection over the
        // harvested directions, then the same solver warm-started.
        let mut x_rec = vec![Complex64::ZERO; n];
        let bnorm = xnorm(&rhs);
        space.try_apply(&corner1, 0, &rhs, &mut x_rec, 1);
        // Never-worsen: the projected start's true residual is no
        // larger than the cold start's (‖b‖, up to roundoff).
        let mut ax = vec![Complex64::ZERO; n];
        corner1.matvec_into(&x_rec, &mut ax);
        let r_start = ax.iter().zip(&rhs).map(|(p, q)| (*p - *q).norm_sqr()).sum::<f64>().sqrt();
        prop_assert!(
            r_start <= bnorm * (1.0 + 1e-12) + 1e-12,
            "projection worsened the start: {r_start} vs {bnorm}"
        );
        let qr = bicgstab_precond_many(&corner1, &mut m, &rhs, &mut x_rec, 1, &warm, &mut ws);
        prop_assert!(qr.converged, "recycled epoch-1 solve did not converge: {qr:?}");

        // Both solutions agree with each other to tolerance.
        let err = x_rec.iter().zip(&x_cold)
            .map(|(p, q)| (*p - *q).norm_sqr()).sum::<f64>().sqrt();
        prop_assert!(
            err <= 200.0 * tol * (1.0 + xnorm(&x_cold)),
            "recycled/cold mismatch {err}"
        );
    }

    // The optimised kernels agree with the seed's scalar reference
    // implementation.
    #[test]
    fn optimised_kernels_match_scalar_reference(
        entries in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 28 * 8),
        rhs in complex_vec(28)
    ) {
        use boson_num::banded::reference;
        let n = 28;
        let a = dominant_banded(n, 4, 3, &entries);
        let fast = a.clone().factor().unwrap();
        let slow = reference::factor(a).unwrap();
        let x_fast = fast.solve_vec(&rhs);
        let mut x_slow = rhs.clone();
        reference::solve(&slow, &mut x_slow);
        for (p, q) in x_fast.iter().zip(&x_slow) {
            prop_assert!((*p - *q).abs() < 1e-9 * (1.0 + q.abs()));
        }
    }
}
