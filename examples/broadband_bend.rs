//! Broadband robust inverse design of the waveguide bend: the operating
//! wavelength joins lithography/temperature/etch as a first-class
//! variation axis. The optimiser sweeps the full (fabrication corner × ω)
//! cross product every iteration — each column a direct factor of the
//! design window's rows, fanned over the corner pool — and maximises the
//! **worst wavelength's** objective, then
//! reports the finished design's spectrum and bandwidth against a
//! single-wavelength run of the same budget.
//!
//! Run with:
//! ```sh
//! cargo run --release --example broadband_bend
//! ```

use boson1::core::baselines::{levelset_param, standard_chain};
use boson1::core::compiled::CompiledProblem;
use boson1::core::objective::SpectralAggregation;
use boson1::core::problem::bending;
use boson1::core::runner::{InverseDesigner, RunnerConfig};
use boson1::core::spectrum::{bandwidth_within, sweep_compiled, wavelength_sweep};
use boson1::fab::{SamplingStrategy, SpectralAxis, VariationSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

const HALF_SPAN: f64 = 0.02; // ±20 nm around λ_c = 1.55 µm
const WAVELENGTHS: usize = 3;

fn main() {
    let iterations = std::env::var("BOSON_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);
    let problem = bending();
    let chain = standard_chain(&problem);
    let axis = SpectralAxis::around(HALF_SPAN, WAVELENGTHS);

    let run = |spectral: bool| {
        let (compiled, space) = if spectral {
            (
                CompiledProblem::compile_spectral(problem.clone(), axis)
                    .expect("spectral compile failed"),
                VariationSpace {
                    spectral: axis,
                    ..VariationSpace::default()
                },
            )
        } else {
            (
                CompiledProblem::compile(problem.clone()).expect("compile failed"),
                VariationSpace::default(),
            )
        };
        let param = levelset_param(&problem, false);
        let config = RunnerConfig {
            iterations,
            sampling: SamplingStrategy::AxialDoubleSided,
            spectral_agg: SpectralAggregation::WorstCase,
            ..RunnerConfig::default()
        };
        let mut designer = InverseDesigner::new(&compiled, &param, chain.clone(), space, config);
        let mut rng = StdRng::seed_from_u64(7);
        let theta0 = designer.initial_theta(&mut rng);
        let result = designer.run(theta0);
        (compiled, result)
    };

    println!("single-wavelength run (λ = 1.55 µm only)…");
    let (narrow_compiled, narrow) = run(false);
    println!(
        "broadband run ({WAVELENGTHS} wavelengths, worst-case-over-ω, \
         {} sims/iteration)…",
        WAVELENGTHS * 7
    );
    let (broad_compiled, broad) = run(true);

    // Spectra of the finished designs over a wider window than trained.
    let sweep_n = wavelength_sweep(&narrow_compiled, &chain, &narrow.mask, 0.03, 7);
    let sweep_b = wavelength_sweep(&broad_compiled, &chain, &broad.mask, 0.03, 7);
    println!(
        "\n{:>10} {:>14} {:>14}",
        "λ (µm)", "single-ω FoM", "broadband FoM"
    );
    for (pn, pb) in sweep_n.iter().zip(&sweep_b) {
        println!("{:>10.4} {:>14.4} {:>14.4}", pn.lambda, pn.fom, pb.fom);
    }
    let centre = sweep_n.len() / 2;
    let bw_n = bandwidth_within(&sweep_n, sweep_n[centre].fom, 0.1);
    let bw_b = bandwidth_within(&sweep_b, sweep_b[centre].fom, 0.1);
    println!("\n10%-bandwidth: single-ω {bw_n:.3} µm, broadband {bw_b:.3} µm");
    println!(
        "factorisations: single-ω {}, broadband {}",
        narrow.factorizations, broad.factorizations
    );

    // The broadband design's training-window spectrum, at K solves.
    let trained = sweep_compiled(&broad_compiled, &chain, &broad.mask);
    let worst = trained.iter().map(|p| p.fom).fold(f64::INFINITY, f64::min);
    println!("broadband design worst in-band FoM (trained window): {worst:.4}");
}
