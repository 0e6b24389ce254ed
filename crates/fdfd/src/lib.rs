//! # boson-fdfd — 2-D frequency-domain electromagnetic solver with adjoints
//!
//! The simulation substrate of the BOSON-1 reproduction: a 2-D TM
//! (out-of-plane `Ez`) finite-difference frequency-domain solver with
//!
//! * stretched-coordinate PML absorbing boundaries ([`pml`]),
//! * a complex-*symmetric* operator assembly so forward and adjoint solves
//!   share one banded LU factorisation ([`operator`], [`sim`]), condensed
//!   to the design window's rows for direct corners ([`window`]),
//! * slab-waveguide eigenmode ports ([`modes`], [`port`]),
//! * unidirectional two-line modal sources ([`source`]),
//! * direction-separating modal monitors and Poynting-flux monitors, all
//!   with exact Wirtinger gradients for the adjoint method ([`monitor`]).
//!
//! Units: lengths in µm, `c = ε₀ = μ₀ = 1`, so `ω = k₀ = 2π/λ`.
//! Time convention `e^{-iωt}`.
//!
//! # Examples
//!
//! A miniature end-to-end simulation of a straight waveguide:
//!
//! ```
//! use boson_fdfd::prelude::*;
//! use boson_num::{Array2, Complex64};
//!
//! let grid = SimGrid::new(50, 40, 0.05, 8);
//! let omega = 2.0 * std::f64::consts::PI / 1.55;
//! // 0.4 µm silicon strip.
//! let eps = Array2::from_fn(40, 50, |iy, _| if (16..24).contains(&iy) { 12.11 } else { 1.0 });
//! let port = Port::new("in", Axis::X, 12, 8, 32);
//! let mode = port.solve_modes(&grid, &eps, omega, 1).remove(0);
//! let src = ModalSource::new(port, mode.clone(), Sign::Plus);
//!
//! // Factor once, then solve: the field overwrites its scaled source.
//! let mut ws = SimWorkspace::new();
//! ws.factor(grid, omega, &eps)?;
//! let mut field = vec![Complex64::ZERO; grid.n()];
//! scale_source_into(&grid, ws.sfactors(), omega, &src.current(&grid), &mut field);
//! ws.solve_block(&mut field, 1)?;
//!
//! let out = Port::new("out", Axis::X, 38, 8, 32);
//! let mon = ModalMonitor::new(&grid, &out, &mode, Sign::Plus);
//! assert!(mon.power(&field) > 0.0);
//! # Ok::<(), boson_num::banded::SingularMatrixError>(())
//! ```

#![warn(missing_docs)]

pub mod grid;
pub mod modes;
pub mod monitor;
pub mod operator;
pub mod pml;
pub mod port;
pub mod sim;
pub mod source;
pub mod window;

/// Convenient glob-import of the main API surface.
pub mod prelude {
    pub use crate::grid::{Axis, Sign, SimGrid};
    pub use crate::modes::{solve_modes, SlabMode};
    pub use crate::monitor::{FluxMonitor, LinearForm, ModalMonitor};
    pub use crate::operator::scale_source_into;
    pub use crate::port::Port;
    pub use crate::sim::SimWorkspace;
    pub use crate::source::ModalSource;
}
