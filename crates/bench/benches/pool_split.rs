//! The `FUSED_SPLIT_MIN_COLS` tuning sweep: one fused lockstep batch at
//! growing packed-column counts, solved serially (`threads = 1`) and on
//! the pool (`threads = 4`), so the crossover where pooled dispatch
//! starts paying is recorded next to the threshold it justifies.
//!
//! The scoped-spawn generation paid a thread spawn + join per
//! preconditioner half-sweep, which needed ≥ 48 columns to amortise. A
//! pool dispatch costs a mutex hand-off and a condvar wake, moving the
//! crossover down to ~16 columns — the value of
//! `boson_fdfd::sim::FUSED_SPLIT_MIN_COLS`. Re-run this sweep (ideally on
//! a multi-core host) before retuning the constant.
//!
//! `scripts/bench.sh` extracts the 16-column pair into
//! `BENCH_solver.json` as `pool_split_16_serial_ns` /
//! `pool_split_16_pooled_ns`; on single-core hosts the pool has no
//! background workers and both sides measure the same serial sweep plus
//! the (near-zero) dispatch overhead.

use boson_fdfd::grid::SimGrid;
use boson_fdfd::sim::{SimWorkspace, SolverStrategy};
use boson_num::{Array2, Complex64};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn setup(grid: &SimGrid) -> (Array2<f64>, Vec<Complex64>) {
    let nominal = Array2::from_fn(grid.ny, grid.nx, |iy, _| {
        if iy.abs_diff(grid.ny / 2) < 4 {
            12.11
        } else {
            1.0
        }
    });
    let g: Vec<Complex64> = (0..grid.n())
        .map(|k| Complex64::new((k as f64 * 0.013).sin(), (k as f64 * 0.007).cos()))
        .collect();
    (nominal, g)
}

fn bench_pool_split(c: &mut Criterion) {
    let grid = SimGrid::new(64, 56, 0.05, 8);
    let n = grid.n();
    let (nominal, g) = setup(&grid);
    let omega = 2.0 * std::f64::consts::PI / 1.55;
    let omegas = [omega, omega * 1.02];

    let mut group = c.benchmark_group("pool_split");
    group.sample_size(10);
    // Column counts bracketing both generations' thresholds: well below
    // (8), at the pooled threshold (16), at the old scoped-spawn
    // threshold (48), and beyond (96). Corners per ω = cols / 2.
    for cols in [8usize, 16, 48, 96] {
        let corners: Vec<Array2<f64>> = (1..=cols / 2)
            .map(|k| nominal.map(|&e| if e > 1.0 { e + 0.002 * k as f64 } else { e }))
            .collect();
        let mut rhs = vec![Complex64::ZERO; n * cols];
        for cc in rhs.chunks_mut(n) {
            cc.copy_from_slice(&g);
        }
        for (label, threads) in [("serial", 1usize), ("pooled", 4)] {
            let id = format!("cols{cols}_{label}");
            group.bench_function(&id, |b| {
                let mut ws = SimWorkspace::new();
                let mut x = vec![Complex64::ZERO; n * cols];
                let mut epoch = 0u64;
                let mut run = |ws: &mut SimWorkspace, x: &mut Vec<Complex64>| {
                    epoch += 1;
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
                    x[n / 2]
                };
                run(&mut ws, &mut x); // warm-up: untimed
                b.iter(|| black_box(run(&mut ws, &mut x)))
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pool_split
}
criterion_main!(benches);
