//! # boson-num — numerical kernels for the BOSON-1 stack
//!
//! This crate provides every numerical primitive the BOSON-1 photonic
//! inverse-design reproduction needs, implemented from scratch:
//!
//! * [`Complex64`] — double-precision complex scalar;
//! * [`Array2`] — dense row-major 2-D arrays used for fields, masks and
//!   permittivity maps;
//! * [`fft`] — radix-2 1-D/2-D FFTs powering the lithography convolutions;
//! * [`banded`] — LAPACK-style complex banded LU with partial pivoting, the
//!   direct solver behind the FDFD electromagnetic simulations (the
//!   operator is complex-symmetric, so one forward-oriented solve serves
//!   both the forward and the adjoint systems), and the unpivoted
//!   complex-symmetric banded `L·D·Lᵀ` of the design-window factor;
//! * [`krylov`] — preconditioned multi-RHS BiCGSTAB taking any
//!   [`banded::BandedLu`] as preconditioner; amortises one nominal
//!   factorisation across many nearby variation-corner solves;
//! * [`pool`] — the process-lifetime parallel substrate: long-lived
//!   workers, deterministic contiguous-chunk parallel-for,
//!   allocation-free steady-state dispatch; every parallel stage of the
//!   stack (fused preconditioner sweeps, per-column Krylov stages,
//!   corner fan-out) runs on this one pool;
//! * [`tridiag`] — symmetric tridiagonal eigensolver (Sturm bisection +
//!   inverse iteration) used by the slab waveguide mode solver;
//! * [`jacobi`] — cyclic Jacobi eigensolver for the EOLE covariance
//!   matrices of the spatially-varying etching threshold field;
//! * [`stats`] — summary statistics for Monte-Carlo evaluation.
//!
//! # Examples
//!
//! Solving a small complex banded system:
//!
//! ```
//! use boson_num::{banded::BandedMatrix, c64, Complex64};
//!
//! let mut a = BandedMatrix::new(3, 1, 1);
//! a.set(0, 0, c64(2.0, 0.0));
//! a.set(1, 1, c64(2.0, 0.0));
//! a.set(2, 2, c64(2.0, 0.0));
//! a.set(0, 1, c64(-1.0, 0.0));
//! a.set(1, 2, c64(-1.0, 0.0));
//! a.set(1, 0, c64(-1.0, 0.0));
//! a.set(2, 1, c64(-1.0, 0.0));
//! let lu = a.factor()?;
//! let x = lu.solve_vec(&[Complex64::ONE; 3]);
//! assert!((x[1].re - 2.0).abs() < 1e-12);
//! # Ok::<(), boson_num::banded::SingularMatrixError>(())
//! ```

#![warn(missing_docs)]
// Index-style loops mirror the underlying linear-algebra notation; the
// iterator rewrites clippy suggests obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod array2;
pub mod banded;
pub mod complex;
pub mod fft;
pub mod jacobi;
pub mod krylov;
pub mod pool;
mod simd;
pub mod stats;
pub mod sync;
pub mod tridiag;

pub use array2::Array2;
pub use complex::{c64, Complex64};
