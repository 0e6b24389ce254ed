//! Golden per-corner iterative solves: [`SimWorkspace::prepare_corner`] +
//! [`SimWorkspace::solve_block`] under the preconditioned iterative
//! strategy, pinned bit for bit against
//! `fixtures/corner_iterative_golden.txt`.
//!
//! Each case records an FNV-1a hash of the solution bits after every
//! `solve_block` call, plus every field of [`CornerSolveReport`] (the
//! residual as its IEEE-754 bit pattern). The cases cover the three ways
//! a single corner reaches the iterative engine:
//!
//! * a non-nominal corner, two right-hand sides then one more (the
//!   adjoint phase merges into the same report), with f32 and with f64
//!   preconditioner sweeps;
//! * the nominal corner of an epoch whose factor a [`FactorLag`] policy
//!   kept stale, and a budget miss against that stale factor, which must
//!   trip a refactor at the next epoch;
//! * a starved budget that falls back to a direct factorisation.
//!
//! Re-record (prints the fixture to stdout):
//!
//! ```text
//! cargo test --release -p boson-fdfd --test corner_iterative_golden -- \
//!     --ignored --nocapture record_corner_iterative_golden
//! ```

use boson_fdfd::grid::SimGrid;
use boson_fdfd::sim::{CornerContext, CornerSolveReport, FactorLag, SimWorkspace, SolverStrategy};
use boson_num::{Array2, Complex64};

const FIXTURE: &str = include_str!("fixtures/corner_iterative_golden.txt");

fn grid() -> SimGrid {
    SimGrid::new(40, 36, 0.05, 8)
}

fn omega() -> f64 {
    2.0 * std::f64::consts::PI / 1.55
}

/// A straight guide along x, `core` in the six rows around the middle.
fn waveguide(grid: &SimGrid, core: f64) -> Array2<f64> {
    Array2::from_fn(grid.ny, grid.nx, |iy, _| {
        if iy.abs_diff(grid.ny / 2) < 3 {
            core
        } else {
            1.0
        }
    })
}

/// A temperature-style core shift plus an etch-style local defect.
fn corner(nominal: &Array2<f64>, k: f64) -> Array2<f64> {
    let mut eps = nominal.map(|&e| if e > 1.0 { e + 0.02 * k } else { e });
    eps[(18, 20)] += 0.4 * k;
    eps
}

/// `nrhs` deterministic right-hand-side columns.
fn rhs(n: usize, nrhs: usize, phase: f64) -> Vec<Complex64> {
    (0..n * nrhs)
        .map(|k| {
            let t = k as f64;
            Complex64::new((t * 0.013 + phase).sin(), (t * 0.007 - phase).cos())
        })
        .collect()
}

/// FNV-1a over the bit patterns of `values`.
fn fnv1a(values: &[Complex64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for part in [v.re, v.im] {
            for b in part.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn report_line(r: &CornerSolveReport) -> String {
    format!(
        "report iter={} fell_back={} converged={} factorizations={} solves={} \
         max_iterations={} total_iterations={} max_residual={:016x}",
        r.used_iterative,
        r.fell_back,
        r.converged,
        r.factorizations,
        r.solves,
        r.max_iterations,
        r.total_iterations,
        r.max_residual.to_bits()
    )
}

/// Solves `b` (`nrhs` columns) on the prepared corner and records the
/// solution hash and the report after the call.
fn solve(ws: &mut SimWorkspace, mut b: Vec<Complex64>, nrhs: usize, out: &mut Vec<String>) {
    ws.solve_block(&mut b, nrhs).expect("solve_block failed");
    out.push(format!("x {:016x}", fnv1a(&b)));
    out.push(report_line(ws.last_report()));
}

fn prepare(
    ws: &mut SimWorkspace,
    nominal: &Array2<f64>,
    epoch: u64,
    eps: &Array2<f64>,
    strategy: SolverStrategy,
    is_nominal: bool,
) {
    let ctx = CornerContext {
        nominal_eps: nominal,
        epoch,
        is_nominal,
        force_direct: false,
        terms: None,
    };
    ws.prepare_corner(grid(), omega(), eps, strategy, Some(&ctx))
        .expect("prepare_corner failed");
}

/// A non-nominal corner: two right-hand sides, then one more.
fn non_nominal(strategy: SolverStrategy) -> Vec<String> {
    let g = grid();
    let n = g.n();
    let nominal = waveguide(&g, 12.11);
    let mut ws = SimWorkspace::new();
    let mut out = Vec::new();
    prepare(
        &mut ws,
        &nominal,
        1,
        &corner(&nominal, 2.0),
        strategy,
        false,
    );
    solve(&mut ws, rhs(n, 2, 0.0), 2, &mut out);
    solve(&mut ws, rhs(n, 1, 0.5), 1, &mut out);
    out
}

/// The nominal corner on a lag-kept stale factor, then a budget miss
/// against that factor and the next epoch's nominal check.
fn stale_nominal() -> Vec<String> {
    let g = grid();
    let n = g.n();
    let strategy = SolverStrategy::preconditioned_iterative();
    let starved = SolverStrategy::PreconditionedIterative {
        tol: 1e-14,
        max_iters: 1,
    };
    let mut ws = SimWorkspace::new();
    ws.set_factor_lag(Some(FactorLag {
        max_lag: 8,
        drift_tol: 0.01,
    }));
    let mut out = Vec::new();
    let nominal0 = waveguide(&g, 12.11);
    prepare(&mut ws, &nominal0, 0, &nominal0, strategy, true);
    out.push(report_line(ws.last_report()));
    // A sub-tolerance drift keeps the epoch-0 factor: the nominal corner
    // rides the iterative path.
    let nominal1 = waveguide(&g, 12.12);
    prepare(&mut ws, &nominal1, 1, &nominal1, strategy, true);
    solve(&mut ws, rhs(n, 2, 0.25), 2, &mut out);
    // A miss against the stale factor falls back …
    prepare(
        &mut ws,
        &nominal1,
        1,
        &corner(&nominal1, 1.0),
        starved,
        false,
    );
    solve(&mut ws, rhs(n, 1, 0.75), 1, &mut out);
    // … and trips a refactor at the next epoch check, drift or not.
    prepare(&mut ws, &nominal1, 2, &nominal1, strategy, true);
    out.push(report_line(ws.last_report()));
    out
}

/// A violently perturbed corner on a starved budget: the direct fallback.
fn starved_fallback() -> Vec<String> {
    let g = grid();
    let n = g.n();
    let nominal = waveguide(&g, 12.11);
    let hard = Array2::from_fn(g.ny, g.nx, |iy, ix| {
        nominal[(iy, ix)] + if iy < g.ny / 2 { 6.0 } else { 0.0 }
    });
    let strategy = SolverStrategy::PreconditionedIterative {
        tol: 1e-10,
        max_iters: 2,
    };
    let mut ws = SimWorkspace::new();
    let mut out = Vec::new();
    prepare(&mut ws, &nominal, 3, &hard, strategy, false);
    solve(&mut ws, rhs(n, 2, 1.0), 2, &mut out);
    solve(&mut ws, rhs(n, 1, 1.5), 1, &mut out);
    out
}

/// One recorded case: its fixture lines, in order.
type Case = fn() -> Vec<String>;

const CASES: [(&str, Case); 4] = [
    ("non_nominal_f32", || {
        non_nominal(SolverStrategy::preconditioned_iterative())
    }),
    ("non_nominal_f64", || {
        non_nominal(SolverStrategy::PreconditionedIterative {
            tol: 1e-10,
            max_iters: 40,
        })
    }),
    ("stale_nominal", stale_nominal),
    ("starved_fallback", starved_fallback),
];

fn lines(name: &str, case: Case) -> Vec<String> {
    case()
        .into_iter()
        .enumerate()
        .map(|(i, l)| format!("{name} {i} {l}"))
        .collect()
}

fn check(idx: usize) {
    let (name, case) = CASES[idx];
    let expected: Vec<&str> = FIXTURE
        .lines()
        .filter(|l| l.split_whitespace().next() == Some(name))
        .collect();
    assert!(!expected.is_empty(), "{name}: no fixture entry");
    assert_eq!(lines(name, case), expected, "{name}");
}

#[test]
#[ignore = "prints the fixture; run with --ignored --nocapture to re-record"]
fn record_corner_iterative_golden() {
    println!("# case step (x solution_hash | report fields, residual bits)");
    for (name, case) in CASES {
        for line in lines(name, case) {
            println!("{line}");
        }
    }
}

#[test]
fn non_nominal_corner_f32_sweeps() {
    check(0);
}

#[test]
fn non_nominal_corner_f64_sweeps() {
    check(1);
}

#[test]
fn stale_nominal_corner_and_miss_streak() {
    check(2);
}

#[test]
fn starved_budget_falls_back() {
    check(3);
}
