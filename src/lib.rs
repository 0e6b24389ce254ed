//! # boson1 — facade for the BOSON-1 reproduction workspace
//!
//! Re-exports every crate of the reproduction of *BOSON-1: Understanding
//! and Enabling Physically-Robust Photonic Inverse Design with Adaptive
//! Variation-Aware Subspace Optimization* (DATE 2025):
//!
//! | module | contents |
//! |--------|----------|
//! | [`num`] | complex scalar, arrays, FFT, banded LU, eigensolvers |
//! | [`fdfd`] | 2-D FDFD electromagnetic solver with adjoints |
//! | [`litho`] | differentiable partially-coherent lithography |
//! | [`fab`] | etch projection, EOLE η fields, variation corners |
//! | [`param`] | level-set / density topology parameterisations |
//! | [`core`] | the BOSON-1 optimisation framework + baselines |
//!
//! # Examples
//!
//! See `examples/quickstart.rs` for an end-to-end inverse design run:
//!
//! ```no_run
//! use boson1::core::baselines::{run_method, BaseRunConfig, MethodSpec};
//! use boson1::core::compiled::CompiledProblem;
//! use boson1::core::problem::bending;
//!
//! let compiled = CompiledProblem::compile(bending()).unwrap();
//! let run = run_method(
//!     &compiled,
//!     &MethodSpec::boson1(30),
//!     &BaseRunConfig { iterations: 30, ..Default::default() },
//! );
//! println!("final mask solid fraction: {:.2}", run.mask.mean());
//! ```

pub use boson_core as core;
pub use boson_fab as fab;
pub use boson_fdfd as fdfd;
pub use boson_litho as litho;
pub use boson_num as num;
pub use boson_param as param;
