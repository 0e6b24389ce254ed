//! Verifies the zero-allocation contract of the workspace solve path: a
//! steady-state factor + forward solve + adjoint solve + gradient
//! accumulation touches the heap **not at all** after warm-up.
//!
//! This is its own integration-test binary so the counting global
//! allocator sees no traffic from unrelated tests. The counter is
//! process-global — pool workers' allocations must count too — so the
//! tests of this binary must not overlap: each one holds [`SERIAL`]
//! across its warm-up and its measured window, whatever `--test-threads`
//! libtest runs with.

use boson_fdfd::grid::SimGrid;
use boson_fdfd::monitor::LinearForm;
use boson_fdfd::operator::scale_source_into;
use boson_fdfd::pml::SFactors;
use boson_fdfd::sim::{CornerContext, SimWorkspace, SolverStrategy};
use boson_fdfd::window::WindowTerms;
use boson_num::{Array2, Complex64};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to the `System` allocator — every method
// forwards its arguments unchanged, so `System`'s layout/aliasing
// guarantees carry over verbatim; the only addition is a Relaxed counter
// bump, which allocates nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same contract as the trait method; the body is delegated to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract — caller obeys `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as the trait method; the body is delegated to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract, as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as the trait method; the body is delegated to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract — `ptr`/`layout` came from this
        // allocator, which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as the trait method; the body is delegated to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract — `ptr` was allocated by `System`
        // through the methods above with the same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Serialises the tests of this binary (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`] for the rest of the calling test; a panicked sibling
/// (poisoned lock) does not block the others.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn steady_state_solve_path_performs_no_heap_allocations() {
    let _serial = serial();
    let grid = SimGrid::new(48, 40, 0.05, 8);
    let omega = 2.0 * std::f64::consts::PI / 1.55;
    let mut eps = Array2::from_fn(grid.ny, grid.nx, |iy, _| {
        if iy.abs_diff(grid.ny / 2) < 4 {
            12.11
        } else {
            1.0
        }
    });
    let mut jz = vec![Complex64::ZERO; grid.n()];
    jz[grid.idx(14, 20)] = Complex64::ONE;
    let g: Vec<Complex64> = (0..grid.n())
        .map(|k| Complex64::new((k as f64 * 0.01).sin(), (k as f64 * 0.02).cos()))
        .collect();

    let mut ws = SimWorkspace::new();
    let mut field = vec![Complex64::ZERO; grid.n()];
    let mut lambda = vec![Complex64::ZERO; grid.n()];
    let mut grad = Array2::zeros(grid.ny, grid.nx);
    let mut corner = |ws: &mut SimWorkspace, eps: &Array2<f64>| {
        ws.prepare_corner(grid, omega, eps, SolverStrategy::Direct, None)
            .unwrap();
        scale_source_into(&grid, ws.sfactors(), omega, &jz, &mut field);
        ws.solve_block(&mut field, 1).unwrap();
        lambda.copy_from_slice(&g);
        ws.solve_block(&mut lambda, 1).unwrap();
        ws.grad_eps_accumulate(&field, &lambda, &mut grad);
    };

    // The changed cell alternates between two positions, so every other
    // refactor resumes before the column the previous one resumed at.
    let cell = |round: usize| {
        if round.is_multiple_of(2) {
            (20, 24)
        } else {
            (11, 6)
        }
    };

    // Warm-up: sizes every buffer (two rounds so Vec growth settles).
    for round in 0..2 {
        eps[cell(round)] = 2.0 + round as f64;
        corner(&mut ws, &eps);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for round in 0..4 {
        // Per-corner permittivity change, mutated in place.
        eps[cell(round)] = 3.0 + round as f64;
        corner(&mut ws, &eps);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state factor+solve path performed {} heap allocations",
        after - before
    );
    // Sanity: the loop really did solve systems.
    assert!(field.iter().any(|v| v.abs() > 0.0));
    assert!(grad.as_slice().iter().any(|v| v.abs() > 0.0));
}

/// The design-window direct path on a warm slab cache: a sweep over the
/// three axial temperatures (each its own bottom slab; the top slab holds
/// no temperature-dependent material) with per-corner design changes,
/// once on the owning workspace and once on a fan-out lane that borrows
/// the cache, touches the heap not at all.
#[test]
fn steady_state_window_direct_sweep_performs_no_heap_allocations() {
    let _serial = serial();
    let grid = SimGrid::new(48, 40, 0.05, 8);
    let omega = 2.0 * std::f64::consts::PI / 1.55;
    let rows = 14..26;
    let eps_at = |t: f64, design: f64| {
        let n_si = 3.48 + 1.8e-4 * (t - 300.0);
        let si = n_si * n_si;
        Array2::from_fn(grid.ny, grid.nx, |iy, ix| {
            let guide = ((18..22).contains(&iy) && ix < 16) || ((20..28).contains(&ix) && iy >= 26);
            if rows.contains(&iy) && (16..32).contains(&ix) {
                1.0 + (si - 1.0) * (0.5 + 0.5 * (0.3 * (ix + iy) as f64 + design).sin())
            } else if guide {
                si
            } else {
                1.0
            }
        })
    };
    let temperatures = [250.0, 300.0, 350.0];
    let mut corners: Vec<Array2<f64>> = temperatures.iter().map(|&t| eps_at(t, 0.0)).collect();
    let mut jz = vec![Complex64::ZERO; grid.n()];
    jz[grid.idx(12, 20)] = Complex64::ONE;
    let g: Vec<Complex64> = (0..grid.n())
        .map(|k| Complex64::new((k as f64 * 0.01).sin(), (k as f64 * 0.02).cos()))
        .collect();
    // The lane prepares its corners for full-field solves on the pairs
    // the owner hands it; the terms only name the slabs' wavelength.
    let terms = Arc::new(WindowTerms::new(&grid, omega, g.clone(), Vec::new()));
    let mut field = vec![Complex64::ZERO; grid.n()];
    let mut lambda = vec![Complex64::ZERO; grid.n()];
    let mut grad = Array2::zeros(grid.ny, grid.nx);
    let mut solves = |ws: &mut SimWorkspace| {
        scale_source_into(&grid, ws.sfactors(), omega, &jz, &mut field);
        ws.solve_block(&mut field, 1).unwrap();
        lambda.copy_from_slice(&g);
        ws.solve_block(&mut lambda, 1).unwrap();
        ws.grad_eps_accumulate(&field, &lambda, &mut grad);
        assert_eq!(ws.last_report().window_fallbacks, 0);
    };

    let mut owner = SimWorkspace::new();
    owner.set_window_rows(Some(rows.clone()));
    let mut lane = SimWorkspace::new();
    lane.set_window_rows(Some(rows.clone()));
    let mut pairs = Vec::with_capacity(corners.len());
    let mut sweep = |owner: &mut SimWorkspace, lane: &mut SimWorkspace, corners: &[Array2<f64>]| {
        // A two-lane fan-out: the owner looks up or builds every corner's
        // slab pair and hands each to the lane.
        pairs.clear();
        pairs.extend(
            corners
                .iter()
                .map(|e| owner.slab_pair(grid, 2, e, &terms, true)),
        );
        for (eps, slabs) in corners.iter().zip(pairs.drain(..)) {
            lane.factor_terms(grid, eps, &terms, true, slabs.as_ref())
                .unwrap();
            solves(lane);
        }
        // The owner's own serial corners hit the same cache.
        for eps in corners {
            owner.factor(grid, omega, eps).unwrap();
            solves(owner);
        }
    };

    // Warm-up: builds the four slabs and sizes every buffer.
    for round in 0..2 {
        for eps in &mut corners {
            eps[(20, 16 + round)] += 0.5;
        }
        sweep(&mut owner, &mut lane, &corners);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for round in 0..3 {
        // Per-corner design change, mutated in place.
        for eps in &mut corners {
            eps[(24, 20 + round)] += 0.25;
        }
        sweep(&mut owner, &mut lane, &corners);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state window direct sweep performed {} heap allocations",
        after - before
    );
    assert!(field.iter().any(|v| v.abs() > 0.0));
    assert!(grad.as_slice().iter().any(|v| v.abs() > 0.0));
    assert_eq!(
        owner.slab_cache().len(),
        4,
        "one top and three bottom slabs stay resident"
    );
}

/// The window-only direct path on a warm slab cache: the sweep of
/// `steady_state_window_direct_sweep_performs_no_heap_allocations`, each
/// corner prepared for fixed right-hand sides and output forms (one of
/// them reaching the bottom slab) and solved only on the window's rows —
/// forward readings, adjoint, window gradient — with the nominal corner
/// also full-field, touches the heap not at all.
#[test]
fn steady_state_window_only_sweep_performs_no_heap_allocations() {
    let _serial = serial();
    let grid = SimGrid::new(48, 40, 0.05, 8);
    let omega = 2.0 * std::f64::consts::PI / 1.55;
    let rows = 14..26;
    let eps_at = |t: f64, design: f64| {
        let n_si = 3.48 + 1.8e-4 * (t - 300.0);
        let si = n_si * n_si;
        Array2::from_fn(grid.ny, grid.nx, |iy, ix| {
            let guide = ((18..22).contains(&iy) && ix < 16) || ((20..28).contains(&ix) && iy >= 26);
            if rows.contains(&iy) && (16..32).contains(&ix) {
                1.0 + (si - 1.0) * (0.5 + 0.5 * (0.3 * (ix + iy) as f64 + design).sin())
            } else if guide {
                si
            } else {
                1.0
            }
        })
    };
    let temperatures = [300.0, 250.0, 350.0];
    let mut corners: Vec<Array2<f64>> = temperatures.iter().map(|&t| eps_at(t, 0.0)).collect();
    let mut jz = vec![Complex64::ZERO; grid.n()];
    jz[grid.idx(12, 20)] = Complex64::ONE;
    let mut b = vec![Complex64::ZERO; grid.n()];
    scale_source_into(&grid, &SFactors::new(&grid, omega), omega, &jz, &mut b);
    let form = |iy: usize| LinearForm {
        weights: (20..28)
            .map(|ix| (grid.idx(ix, iy), Complex64::new(0.5, 0.1)))
            .collect(),
    };
    let terms = Arc::new(WindowTerms::new(
        &grid,
        omega,
        b,
        vec![(0, form(20)), (0, form(32))],
    ));
    let (mut fields, mut amps, mut lambdas) = (Vec::new(), Vec::new(), Vec::new());
    let mut coef = vec![Complex64::ZERO; 2];
    let mut grad = Array2::zeros(grid.ny, grid.nx);
    let mut solves = |ws: &mut SimWorkspace| {
        ws.solve_terms(&mut fields, &mut amps).unwrap();
        for (c, a) in coef.iter_mut().zip(&amps) {
            *c = a.conj();
        }
        ws.solve_terms_adjoint(&coef, &mut lambdas).unwrap();
        ws.grad_eps_accumulate_window(&fields, &lambdas, &mut grad);
        assert_eq!(ws.last_report().window_fallbacks, 0);
    };

    let mut owner = SimWorkspace::new();
    owner.set_window_rows(Some(rows.clone()));
    let mut lane = SimWorkspace::new();
    lane.set_window_rows(Some(rows.clone()));
    let mut pairs = Vec::with_capacity(corners.len());
    let mut sweep = |owner: &mut SimWorkspace, lane: &mut SimWorkspace, corners: &[Array2<f64>]| {
        // A two-lane fan-out: corner 0 (the nominal) is also full-field.
        pairs.clear();
        pairs.extend(
            corners
                .iter()
                .enumerate()
                .map(|(i, e)| owner.slab_pair(grid, 2, e, &terms, i == 0)),
        );
        for (i, (eps, slabs)) in corners.iter().zip(pairs.drain(..)).enumerate() {
            lane.factor_terms(grid, eps, &terms, i == 0, slabs.as_ref())
                .unwrap();
            solves(lane);
        }
        for (i, eps) in corners.iter().enumerate() {
            owner.factor_terms(grid, eps, &terms, i == 0, None).unwrap();
            solves(owner);
        }
    };

    for round in 0..2 {
        for eps in &mut corners {
            eps[(20, 16 + round)] += 0.5;
        }
        sweep(&mut owner, &mut lane, &corners);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for round in 0..3 {
        for eps in &mut corners {
            eps[(24, 20 + round)] += 0.25;
        }
        sweep(&mut owner, &mut lane, &corners);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state window-only sweep performed {} heap allocations",
        after - before
    );
    assert!(amps.iter().any(|v| v.abs() > 0.0));
    assert!(grad.as_slice().iter().any(|v| v.abs() > 0.0));
    let slabs = owner.slab_cache();
    assert_eq!(
        slabs.len(),
        4,
        "one top and three bottom slabs stay resident"
    );
    assert_eq!(
        slabs.factored_len(),
        2,
        "only the nominal pair keeps its factors"
    );
}

#[test]
fn steady_state_iterative_corner_path_performs_no_heap_allocations() {
    let _serial = serial();
    let grid = SimGrid::new(48, 40, 0.05, 8);
    let omega = 2.0 * std::f64::consts::PI / 1.55;
    let nominal = Array2::from_fn(grid.ny, grid.nx, |iy, _| {
        if iy.abs_diff(grid.ny / 2) < 4 {
            12.11
        } else {
            1.0
        }
    });
    let mut eps = nominal.clone();
    let g: Vec<Complex64> = (0..grid.n())
        .map(|k| Complex64::new((k as f64 * 0.01).sin(), (k as f64 * 0.02).cos()))
        .collect();
    let strategy = SolverStrategy::preconditioned_iterative();

    let mut ws = SimWorkspace::new();
    let n = grid.n();
    let mut block = vec![Complex64::ZERO; n];
    let mut grad = Array2::zeros(grid.ny, grid.nx);

    let run_epoch = |ws: &mut SimWorkspace,
                     eps: &mut Array2<f64>,
                     grad: &mut Array2<f64>,
                     block: &mut Vec<Complex64>,
                     epoch: u64| {
        // Nominal corner + three perturbed corners per epoch, mirroring
        // one robust iteration's sweep.
        for corner in 0..4usize {
            for (dst, &nom) in eps.as_mut_slice().iter_mut().zip(nominal.as_slice()) {
                *dst = if nom > 1.0 {
                    nom + 0.01 * corner as f64
                } else {
                    nom
                };
            }
            let ctx = CornerContext {
                nominal_eps: &nominal,
                epoch,
                is_nominal: corner == 0,
                force_direct: false,
                terms: None,
            };
            ws.prepare_corner(grid, omega, eps, strategy, Some(&ctx))
                .unwrap();
            block.copy_from_slice(&g);
            ws.solve_block(block, 1).unwrap();
            assert!(!ws.last_report().fell_back, "corner {corner} fell back");
            ws.grad_eps_accumulate(&g, block, grad);
        }
    };

    // Warm-up: two epochs so every buffer (factors, Krylov scratch, RHS
    // snapshot) reaches its steady-state size.
    for epoch in 0..2 {
        run_epoch(&mut ws, &mut eps, &mut grad, &mut block, epoch);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for epoch in 2..6 {
        run_epoch(&mut ws, &mut eps, &mut grad, &mut block, epoch);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state iterative corner path performed {} heap allocations",
        after - before
    );
    assert!(block.iter().any(|v| v.abs() > 0.0));
    assert!(grad.as_slice().iter().any(|v| v.abs() > 0.0));
}

#[test]
fn steady_state_spectral_batched_corner_sweep_performs_no_heap_allocations() {
    let _serial = serial();
    // Single-ω batched sweeps revisiting a broadband ω set: per epoch,
    // each of K wavelengths runs one single-ω lockstep batch over the
    // corner set against its own nominal factor. After warm-up every ω's
    // slot (stretch factors, stencil couplings, nominal LU + f32 copy) is
    // resident in the workspace's ω cache, so the steady state touches
    // the heap not at all.
    let grid = SimGrid::new(48, 40, 0.05, 8);
    let lambda = 1.55;
    let omegas: Vec<f64> = (0..3)
        .map(|k| 2.0 * std::f64::consts::PI / (lambda - 0.02 + 0.02 * k as f64))
        .collect();
    let nominal = Array2::from_fn(grid.ny, grid.nx, |iy, _| {
        if iy.abs_diff(grid.ny / 2) < 4 {
            12.11
        } else {
            1.0
        }
    });
    let corners: Vec<Array2<f64>> = (1..4)
        .map(|k| nominal.map(|&e| if e > 1.0 { e + 0.01 * k as f64 } else { e }))
        .collect();
    let n = grid.n();
    let g: Vec<Complex64> = (0..n)
        .map(|k| Complex64::new((k as f64 * 0.01).sin(), (k as f64 * 0.02).cos()))
        .collect();
    let mut rhs = vec![Complex64::ZERO; n * corners.len()];
    for c in 0..corners.len() {
        rhs[c * n..(c + 1) * n].copy_from_slice(&g);
    }
    let mut x = vec![Complex64::ZERO; n * corners.len()];

    let mut ws = SimWorkspace::new();
    let run_epoch = |ws: &mut SimWorkspace, x: &mut Vec<Complex64>, epoch: u64| {
        for &omega in &omegas {
            ws.fused_batch_begin(
                grid,
                &[omega],
                &nominal,
                epoch,
                SolverStrategy::preconditioned_iterative(),
            )
            .unwrap();
            for eps in &corners {
                ws.fused_batch_push(eps, 0);
            }
            x.fill(Complex64::ZERO);
            ws.fused_batch_solve(&rhs, x, 1, false, 1, None);
            assert!(ws.batch_reports().iter().all(|r| r.converged));
        }
    };

    for epoch in 0..2 {
        run_epoch(&mut ws, &mut x, epoch);
    }
    assert_eq!(ws.omega_slot_count(), omegas.len());
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for epoch in 2..6 {
        run_epoch(&mut ws, &mut x, epoch);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state spectral (corner × ω) sweep performed {} heap allocations",
        after - before
    );
    assert!(x.iter().any(|v| v.abs() > 0.0));
}

#[test]
fn steady_state_fused_cross_omega_sweep_performs_no_heap_allocations() {
    let _serial = serial();
    // The fused (corner × ω) sweep: per epoch, ONE lockstep batch carries
    // every (corner, wavelength) column, each preconditioned by its own
    // ω's nominal factor. After warm-up all K slots and the fused batch
    // buffers are resident, so the steady state touches the heap not at
    // all. (The column count here stays below FUSED_SPLIT_MIN_COLS, so
    // this pins the *serial* sweep; the over-threshold pooled dispatch is
    // pinned by `steady_state_pooled_fused_sweep_performs_no_heap_allocations`.)
    use boson_fdfd::sim::FUSED_SPLIT_MIN_COLS;
    let grid = SimGrid::new(48, 40, 0.05, 8);
    let lambda = 1.55;
    let omegas: Vec<f64> = (0..3)
        .map(|k| 2.0 * std::f64::consts::PI / (lambda - 0.02 + 0.02 * k as f64))
        .collect();
    let nominal = Array2::from_fn(grid.ny, grid.nx, |iy, _| {
        if iy.abs_diff(grid.ny / 2) < 4 {
            12.11
        } else {
            1.0
        }
    });
    let corners: Vec<Array2<f64>> = (1..4)
        .map(|k| nominal.map(|&e| if e > 1.0 { e + 0.01 * k as f64 } else { e }))
        .collect();
    let n = grid.n();
    let total = corners.len() * omegas.len();
    assert!(total < FUSED_SPLIT_MIN_COLS);
    let g: Vec<Complex64> = (0..n)
        .map(|k| Complex64::new((k as f64 * 0.01).sin(), (k as f64 * 0.02).cos()))
        .collect();
    let mut rhs = vec![Complex64::ZERO; n * total];
    for c in 0..total {
        rhs[c * n..(c + 1) * n].copy_from_slice(&g);
    }
    let mut x = vec![Complex64::ZERO; n * total];

    let mut ws = SimWorkspace::new();
    let run_epoch = |ws: &mut SimWorkspace, x: &mut Vec<Complex64>, epoch: u64| {
        ws.fused_batch_begin(
            grid,
            &omegas,
            &nominal,
            epoch,
            SolverStrategy::preconditioned_iterative(),
        )
        .unwrap();
        for oi in 0..omegas.len() {
            for eps in &corners {
                ws.fused_batch_push(eps, oi);
            }
        }
        x.fill(Complex64::ZERO);
        // Forward phase + a second (adjoint-pattern) phase per epoch.
        ws.fused_batch_solve(&rhs, x, 1, false, 1, None);
        ws.fused_batch_solve(&rhs, x, 1, false, 1, None);
        assert!(ws.batch_reports().iter().all(|r| r.converged));
    };

    for epoch in 0..2 {
        run_epoch(&mut ws, &mut x, epoch);
    }
    assert_eq!(ws.omega_slot_count(), omegas.len());
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for epoch in 2..6 {
        run_epoch(&mut ws, &mut x, epoch);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state fused (corner × ω) sweep performed {} heap allocations",
        after - before
    );
    assert!(x.iter().any(|v| v.abs() > 0.0));
}

#[test]
fn steady_state_pooled_fused_sweep_performs_no_heap_allocations() {
    let _serial = serial();
    // The pooled dispatch path: enough packed columns that the fused
    // sweep splits its preconditioner half-sweeps (and, above
    // `PAR_MIN_ELEMS`, its per-column Krylov stages) across lanes of the
    // process-wide `boson_num::pool`. The substrate's steady-state
    // dispatch is allocation-free — handing a job to the resident workers
    // is a mutex hand-off plus a condvar wake, and per-lane scratch is
    // sized during warm-up — so the counting allocator (which sees every
    // thread, workers included) must read zero. The global pool itself is
    // built on the first dispatch, inside warm-up.
    use boson_fdfd::sim::FUSED_SPLIT_MIN_COLS;
    let grid = SimGrid::new(48, 40, 0.05, 8);
    let lambda = 1.55;
    let omegas: Vec<f64> = (0..3)
        .map(|k| 2.0 * std::f64::consts::PI / (lambda - 0.02 + 0.02 * k as f64))
        .collect();
    let nominal = Array2::from_fn(grid.ny, grid.nx, |iy, _| {
        if iy.abs_diff(grid.ny / 2) < 4 {
            12.11
        } else {
            1.0
        }
    });
    let corners: Vec<Array2<f64>> = (1..7)
        .map(|k| nominal.map(|&e| if e > 1.0 { e + 0.01 * k as f64 } else { e }))
        .collect();
    let n = grid.n();
    let total = corners.len() * omegas.len();
    // Over the split threshold: the multi-lane dispatch genuinely runs.
    assert!(total >= FUSED_SPLIT_MIN_COLS);
    let threads = 4;
    let g: Vec<Complex64> = (0..n)
        .map(|k| Complex64::new((k as f64 * 0.01).sin(), (k as f64 * 0.02).cos()))
        .collect();
    let mut rhs = vec![Complex64::ZERO; n * total];
    for c in 0..total {
        rhs[c * n..(c + 1) * n].copy_from_slice(&g);
    }
    let mut x = vec![Complex64::ZERO; n * total];

    let mut ws = SimWorkspace::new();
    let run_epoch = |ws: &mut SimWorkspace, x: &mut Vec<Complex64>, epoch: u64| {
        ws.fused_batch_begin(
            grid,
            &omegas,
            &nominal,
            epoch,
            SolverStrategy::preconditioned_iterative(),
        )
        .unwrap();
        for oi in 0..omegas.len() {
            for eps in &corners {
                ws.fused_batch_push(eps, oi);
            }
        }
        x.fill(Complex64::ZERO);
        ws.fused_batch_solve(&rhs, x, 1, false, threads, None);
        assert!(ws.batch_reports().iter().all(|r| r.converged));
    };

    for epoch in 0..2 {
        run_epoch(&mut ws, &mut x, epoch);
    }
    assert_eq!(ws.omega_slot_count(), omegas.len());
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for epoch in 2..6 {
        run_epoch(&mut ws, &mut x, epoch);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state pooled fused sweep performed {} heap allocations",
        after - before
    );
    assert!(x.iter().any(|v| v.abs() > 0.0));
}

#[test]
fn steady_state_recycled_lagged_sweep_performs_no_heap_allocations() {
    let _serial = serial();
    // The temporal-axis steady state: the fused (corner × ω) sweep with
    // BOTH cross-iteration Krylov recycling (per-column deflation stores,
    // forward and adjoint stores) and the lagged nominal-factor
    // policy enabled. After warm-up the deflation stores are dimensioned,
    // the x₀ snapshot buffer is grown, and the kept factors make every
    // epoch's nominal refresh O(n) drift math — none of which may touch
    // the heap.
    use boson_fdfd::sim::{FactorLag, FusedRecycle, FUSED_SPLIT_MIN_COLS};
    use boson_num::krylov::RecycleSpace;
    let grid = SimGrid::new(48, 40, 0.05, 8);
    let lambda = 1.55;
    let omegas: Vec<f64> = (0..3)
        .map(|k| 2.0 * std::f64::consts::PI / (lambda - 0.02 + 0.02 * k as f64))
        .collect();
    let nominal = Array2::from_fn(grid.ny, grid.nx, |iy, _| {
        if iy.abs_diff(grid.ny / 2) < 4 {
            12.11
        } else {
            1.0
        }
    });
    let mut corners: Vec<Array2<f64>> = (1..4)
        .map(|k| nominal.map(|&e| if e > 1.0 { e + 0.01 * k as f64 } else { e }))
        .collect();
    let n = grid.n();
    let total = corners.len() * omegas.len();
    assert!(total < FUSED_SPLIT_MIN_COLS);
    let g: Vec<Complex64> = (0..n)
        .map(|k| Complex64::new((k as f64 * 0.01).sin(), (k as f64 * 0.02).cos()))
        .collect();
    let mut rhs = vec![Complex64::ZERO; n * total];
    for c in 0..total {
        rhs[c * n..(c + 1) * n].copy_from_slice(&g);
    }
    let mut x = vec![Complex64::ZERO; n * total];
    let keys: Vec<usize> = (0..total).collect();
    let make_spaces = || -> Vec<RecycleSpace> {
        (0..total)
            .map(|_| {
                let mut s = RecycleSpace::new(4);
                s.set_max_age(4);
                s
            })
            .collect()
    };
    let mut fwd = make_spaces();
    let mut adj = make_spaces();

    let mut ws = SimWorkspace::new();
    ws.set_factor_lag(Some(FactorLag {
        max_lag: 16,
        drift_tol: 0.5,
    }));
    let run_epoch = |ws: &mut SimWorkspace,
                     corners: &mut [Array2<f64>],
                     x: &mut Vec<Complex64>,
                     fwd: &mut Vec<RecycleSpace>,
                     adj: &mut Vec<RecycleSpace>,
                     epoch: u64| {
        // Per-epoch ε drift in place: the corners move a little every
        // epoch, so the harvested corrections are nonzero and the
        // projection has real work to do.
        for eps in corners.iter_mut() {
            for v in eps.as_mut_slice() {
                if *v > 1.0 {
                    *v += 0.001;
                }
            }
        }
        ws.fused_batch_begin(
            grid,
            &omegas,
            &nominal,
            epoch,
            SolverStrategy::preconditioned_iterative(),
        )
        .unwrap();
        for oi in 0..omegas.len() {
            for eps in corners.iter() {
                ws.fused_batch_push(eps, oi);
            }
        }
        // Forward phase, then the adjoint-pattern phase, each against its
        // own deflation stores.
        x.fill(Complex64::ZERO);
        ws.fused_batch_solve(
            &rhs,
            x,
            1,
            false,
            1,
            Some(FusedRecycle {
                spaces: fwd,
                keys: &keys,
                epoch,
            }),
        );
        x.fill(Complex64::ZERO);
        ws.fused_batch_solve(
            &rhs,
            x,
            1,
            false,
            1,
            Some(FusedRecycle {
                spaces: adj,
                keys: &keys,
                epoch,
            }),
        );
        assert!(ws.batch_reports().iter().all(|r| r.converged));
    };

    for epoch in 0..2 {
        run_epoch(&mut ws, &mut corners, &mut x, &mut fwd, &mut adj, epoch);
    }
    assert_eq!(ws.omega_slot_count(), omegas.len());
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for epoch in 2..6 {
        run_epoch(&mut ws, &mut corners, &mut x, &mut fwd, &mut adj, epoch);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state recycled + lagged sweep performed {} heap allocations",
        after - before
    );
    assert!(x.iter().any(|v| v.abs() > 0.0));
    // Sanity: recycling really engaged (directions were harvested).
    assert!(fwd.iter().any(|s| !s.is_empty()));
    assert!(adj.iter().any(|s| !s.is_empty()));
}
