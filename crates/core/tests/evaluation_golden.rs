//! Golden single-ε and corner-product evaluations: every evaluation
//! entry point of a compiled problem, pinned bit for bit against
//! `fixtures/evaluation_golden.txt`.
//!
//! The bend (one excitation, one wavelength) and the isolator (two
//! excitations, three wavelengths) are evaluated at the seed design
//! through:
//!
//! * `evaluate_eps_scratch`, and `evaluate_eps_omega` at every compiled
//!   wavelength (direct, window-only);
//! * `evaluate_eps_corner` as the iterative nominal corner without and
//!   with a factor lag, a cold non-nominal iterative corner, a
//!   policy-pinned (`force_direct`) corner and a starved budget that
//!   falls back to a direct factor;
//! * `evaluate_corner_product` over (nominal, T_lo, T_hi) × every
//!   wavelength under `Direct` on one and on two lanes (its
//!   fabrication-nominal centre entry solves the whole grid) and under a
//!   starved iterative budget.
//!
//! Per evaluation the fixture holds the IEEE-754 bits of the objective
//! and the figure of merit, an FNV-1a hash of `grad_eps`'s bits, and the
//! solve report's factorisations, solves, summed Krylov iterations,
//! fallback flag and window fallbacks. Any change to the evaluation
//! engine that is meant to be arithmetic-preserving must keep every entry
//! identical.
//!
//! Re-record (prints the fixture to stdout):
//!
//! ```text
//! cargo test --release -p boson-core --test evaluation_golden -- \
//!     --ignored --nocapture record_evaluation_golden
//! ```

use boson_core::baselines::levelset_param;
use boson_core::compiled::{
    CompiledProblem, CornerProductSolve, CornerSolve, EvalScratch, Evaluation, RecycleConfig,
};
use boson_core::problem::{bending, isolator, DeviceProblem};
use boson_fab::{SpectralAxis, TemperatureModel};
use boson_fdfd::sim::SolverStrategy;
use boson_num::Array2;
use boson_param::Parameterization;

const FIXTURE: &str = include_str!("fixtures/evaluation_golden.txt");

/// A budget no column meets: every iterative solve falls back.
const STARVED: SolverStrategy = SolverStrategy::PreconditionedIterative {
    tol: 1e-300,
    max_iters: 2,
};

/// FNV-1a over the bit patterns of `values`.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One fixture line.
fn line(name: &str, ev: &Evaluation) -> String {
    let grad = ev.grad_eps.as_ref().map_or_else(
        || "-".to_owned(),
        |g| format!("{:016x}", fnv1a(g.as_slice())),
    );
    let s = &ev.solve;
    format!(
        "{name} {:016x} {:016x} {grad} {} {} {} {} {}",
        ev.objective.to_bits(),
        ev.fom.to_bits(),
        s.factorizations,
        s.solves,
        s.total_iterations,
        s.fell_back,
        s.window_fallbacks
    )
}

/// The device's seed permittivity at the nominal, lowest and highest
/// temperature.
fn corners(c: &CompiledProblem) -> [Array2<f64>; 3] {
    let problem = c.problem();
    let param = levelset_param(problem, false);
    let rho = param.forward(&param.theta_from_geometry(&problem.seed));
    let (t_lo, t_hi) = TemperatureModel::default().range();
    [
        c.eps_for(&rho, 300.0),
        c.eps_for(&rho, t_lo),
        c.eps_for(&rho, t_hi),
    ]
}

/// Every evaluation of one device, in fixture order.
fn table(device: &str, problem: DeviceProblem, k: usize) -> Vec<String> {
    let axis = SpectralAxis::around(0.02, k);
    let c = CompiledProblem::compile_spectral(problem, axis).expect("compile");
    let spec = c.problem().objective.clone();
    let eps = corners(&c);
    let nominal = &eps[0];
    let centre = c.nominal_omega_idx();
    let mut lines = Vec::new();

    let ev = c
        .evaluate_eps_scratch(nominal, true, &spec, &mut EvalScratch::new())
        .unwrap();
    lines.push(line(&format!("{device}/scratch"), &ev));
    let mut scratch = EvalScratch::new();
    for oi in 0..c.omega_count() {
        let ev = c
            .evaluate_eps_omega(&eps[1], true, &spec, &mut scratch, oi)
            .unwrap();
        lines.push(line(&format!("{device}/omega{oi}"), &ev));
    }

    let iterative = SolverStrategy::preconditioned_iterative();
    let corner = |name: &str, strategy, is_nominal, force_direct, lag: bool, e: &Array2<f64>| {
        let mut scratch = EvalScratch::new();
        if lag {
            scratch.configure_recycling(&RecycleConfig::enabled());
        }
        let cs = CornerSolve {
            strategy,
            nominal_eps: nominal,
            epoch: 1,
            is_nominal,
            force_direct,
            omega_idx: centre,
        };
        let ev = c
            .evaluate_eps_corner(e, true, &spec, &mut scratch, Some(&cs))
            .unwrap();
        line(&format!("{device}/corner/{name}"), &ev)
    };
    lines.push(corner("nominal", iterative, true, false, false, nominal));
    lines.push(corner("nominal-lag", iterative, true, false, true, nominal));
    lines.push(corner("cold", iterative, false, false, false, &eps[2]));
    lines.push(corner("forced", iterative, false, true, false, &eps[1]));
    lines.push(corner("starved", STARVED, false, false, false, &eps[2]));

    let nf = eps.len();
    let count = c.omega_count() * nf;
    let epss: Vec<Array2<f64>> = (0..count).map(|ci| eps[ci % nf].clone()).collect();
    let omega_idx: Vec<usize> = (0..count).map(|ci| ci / nf).collect();
    let is_nominal: Vec<bool> = (0..count).map(|ci| ci % nf == 0).collect();
    let force_direct = vec![false; count];
    for (name, strategy, threads) in [
        ("direct1", SolverStrategy::Direct, 1),
        ("direct2", SolverStrategy::Direct, 2),
        ("starved", STARVED, 1),
    ] {
        let set = CornerProductSolve {
            strategy,
            nominal_eps: nominal,
            epoch: 1,
            omega_idx: &omega_idx,
            is_nominal: &is_nominal,
            force_direct: &force_direct,
            threads,
            skip_zero_weight_adjoints: None,
            recycle: None,
        };
        let evals = c
            .evaluate_corner_product(&epss, true, &spec, &mut EvalScratch::new(), &set)
            .unwrap();
        for (ci, ev) in evals.iter().enumerate() {
            lines.push(line(&format!("{device}/product/{name}/{ci}"), ev));
        }
    }
    lines
}

fn check(device: &str, got: Vec<String>) {
    let expected: Vec<&str> = FIXTURE
        .lines()
        .filter(|l| l.split('/').next() == Some(device))
        .collect();
    assert!(!expected.is_empty(), "{device}: no fixture entry");
    assert_eq!(got, expected, "{device}");
}

#[test]
#[ignore = "prints the fixture; run with --ignored --nocapture to re-record"]
fn record_evaluation_golden() {
    println!(
        "# name objective_bits fom_bits grad_fnv factorizations solves \
         total_iterations fell_back window_fallbacks"
    );
    for l in table("bend", bending(), 1)
        .into_iter()
        .chain(table("isolator", isolator(), 3))
    {
        println!("{l}");
    }
}

#[test]
fn bend_evaluations_match_the_fixture() {
    check("bend", table("bend", bending(), 1));
}

#[test]
fn isolator_evaluations_match_the_fixture() {
    check("isolator", table("isolator", isolator(), 3));
}
