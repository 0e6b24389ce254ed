//! # boson-sparse — multigrid preconditioning
//!
//! The large-grid preconditioning engine of the BOSON-1 stack:
//! [`multigrid`] is a matrix-free **geometric multigrid V-cycle** with
//! `O(n)` setup and per-application cost. This is what breaks the
//! `O(n·b²)` banded-LU wall: above a grid-size threshold the FDFD corner
//! sweeps precondition BiCGSTAB with a V-cycle instead of a banded
//! factor, so 256×256+ footprints solve in a handful of Krylov iterations
//! without ever materialising a factorisation above the coarsest level.
//!
//! The Krylov solver itself is [`boson_num::krylov`]; the multigrid
//! engines plug into it through its
//! [`Precondition`](boson_num::krylov::Precondition) seam.
//!
//! # Examples
//!
//! A V-cycle preconditioning the production BiCGSTAB on a complex-shifted
//! 2-D Laplacian (the FDFD Helmholtz operator enters the same way through
//! its stencil arrays):
//!
//! ```
//! use boson_num::krylov::{bicgstab_precond_many, IterativeOptions, KrylovWorkspace, LinearOp};
//! use boson_num::{c64, Complex64};
//! use boson_sparse::multigrid::{
//!     FineStencil, MgPrecond, MgScratch, Multigrid, MultigridOptions,
//! };
//!
//! let (nx, ny) = (33, 33);
//! let n = nx * ny;
//! // Neighbour couplings of -1, zeroed across the outer boundary.
//! let coupling = |keep: fn(usize, usize, usize, usize) -> bool| -> Vec<Complex64> {
//!     (0..n)
//!         .map(|k| if keep(k % nx, k / nx, nx, ny) { c64(-1.0, 0.0) } else { Complex64::ZERO })
//!         .collect()
//! };
//! let west = coupling(|i, _, _, _| i > 0);
//! let east = coupling(|i, _, nx, _| i + 1 < nx);
//! let south = coupling(|_, j, _, _| j > 0);
//! let north = coupling(|_, j, _, ny| j + 1 < ny);
//! let diag = vec![c64(4.2, 0.3); n];
//! let fine = FineStencil { nx, ny, west: &west, east: &east, south: &south, north: &north, diag: &diag };
//!
//! let mut mg = Multigrid::new(MultigridOptions { coarse_max_dim: 8, ..MultigridOptions::default() });
//! mg.rebuild(&fine)?;
//!
//! // The fine operator, applied matrix-free (complex-symmetric: Aᵀ = A).
//! struct Fine<'a>(&'a Multigrid);
//! impl LinearOp for Fine<'_> {
//!     fn dim(&self) -> usize {
//!         self.0.dim()
//!     }
//!     fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
//!         self.0.apply_fine(x, y);
//!     }
//!     fn apply_transpose(&self, x: &[Complex64], y: &mut [Complex64]) {
//!         self.0.apply_fine(x, y);
//!     }
//! }
//!
//! let b: Vec<Complex64> = (0..n).map(|k| c64((k as f64 * 0.01).sin(), 0.1)).collect();
//! let mut x = vec![Complex64::ZERO; n];
//! let mut scratch = MgScratch::new();
//! let mut precond = MgPrecond { mg: &mg, scratch: &mut scratch };
//! let quality = bicgstab_precond_many(
//!     &Fine(&mg),
//!     &mut precond,
//!     &b,
//!     &mut x,
//!     1,
//!     &IterativeOptions::default(),
//!     &mut KrylovWorkspace::new(),
//! );
//! assert!(quality.converged);
//! assert!(quality.max_iterations < 20);
//! # Ok::<(), boson_num::banded::SingularMatrixError>(())
//! ```

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]

pub mod multigrid;
