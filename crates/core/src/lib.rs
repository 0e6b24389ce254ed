//! # boson-core — BOSON-1: physically-robust photonic inverse design
//!
//! The paper's primary contribution, assembled from the substrate crates:
//!
//! * [`problem`] — the three device benchmarks (bending, crossing,
//!   isolator) with ports, monitors and dense objectives;
//! * [`compiled`] — benchmark compilation (modes, sources, calibration)
//!   and forward+adjoint evaluation of permittivity maps;
//! * [`fabchain`] — the compound differentiable fabrication mapping
//!   `T_t ∘ E_η ∘ L_l ∘ P` (paper Eq. 1) with exact VJPs;
//! * [`objective`] — dense auxiliary objectives / loss-landscape
//!   reshaping (Eq. 2);
//! * [`schedule`] — conditional subspace relaxation (Eq. 3) and etch
//!   projection sharpening;
//! * [`runner`] — the adaptive variation-aware optimisation loop with
//!   parallel corner evaluation and the worst-case corner search;
//! * [`subspace`] — the adaptive corner-subspace scheduler: per-(corner,
//!   ω) importance tracking that restricts each robust iteration to the
//!   top-M columns of the (fabrication corner × wavelength) cross
//!   product, with periodic full-sweep refresh epochs (§III);
//! * [`baselines`] — every comparison method from the paper's tables,
//!   including the two-stage InvFabCor mask-correction flow;
//! * [`eval`] — pre-fab vs Monte-Carlo post-fab evaluation;
//! * [`spectrum`] — finished-design wavelength sweeps at K solves per
//!   sweep (the spectral axis' evaluation counterpart: broadband robust
//!   *optimisation* runs through [`runner`] with a
//!   `boson_fab::SpectralAxis` in the variation space);
//! * [`optimizer`] — Adam.
//!
//! # Examples
//!
//! A miniature end-to-end run (tiny iteration budget; see
//! `examples/` for realistic ones):
//!
//! ```no_run
//! use boson_core::baselines::{run_method, BaseRunConfig, MethodSpec};
//! use boson_core::compiled::CompiledProblem;
//! use boson_core::problem::bending;
//!
//! let compiled = CompiledProblem::compile(bending()).unwrap();
//! let base = BaseRunConfig { iterations: 5, ..Default::default() };
//! let run = run_method(&compiled, &MethodSpec::boson1(5), &base);
//! println!("{}: {} factorisations", run.name, run.factorizations);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod compiled;
pub mod eval;
pub mod fabchain;
pub mod objective;
pub mod optimizer;
pub mod pool;
pub mod problem;
pub mod runner;
pub mod schedule;
pub mod spectrum;
pub mod subspace;
