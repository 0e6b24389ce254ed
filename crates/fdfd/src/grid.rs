//! FDFD grid geometry.
//!
//! A [`SimGrid`] describes a uniform 2-D Yee grid: `nx × ny` cells of pitch
//! `dx` (µm), with `npml` cells of perfectly-matched layer on every edge.
//! `Ez` lives at integer grid points; flat indexing is x-fastest
//! (`idx = iy * nx + ix`) so the FDFD operator bandwidth equals `nx`.
//!
//! # Examples
//!
//! ```
//! use boson_fdfd::grid::SimGrid;
//!
//! let g = SimGrid::new(80, 60, 0.05, 10);
//! assert_eq!(g.n(), 4800);
//! assert_eq!(g.idx(3, 2), 2 * 80 + 3);
//! assert!((g.width() - 4.0).abs() < 1e-12);
//! assert_eq!(g.interior_x(), 10..70);
//! ```

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Axis selector for ports, planes and monitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Axis {
    /// Planes of constant *x*; propagation along x.
    X,
    /// Planes of constant *y*; propagation along y.
    Y,
}

/// Propagation direction along an axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sign {
    /// Towards increasing coordinate.
    Plus,
    /// Towards decreasing coordinate.
    Minus,
}

impl Sign {
    /// `+1.0` or `-1.0`.
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Sign::Plus => 1.0,
            Sign::Minus => -1.0,
        }
    }
}

/// Uniform 2-D Yee grid with PML on all four edges.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimGrid {
    /// Cells along x.
    pub nx: usize,
    /// Cells along y.
    pub ny: usize,
    /// Cell pitch in µm (uniform in x and y).
    pub dx: f64,
    /// PML thickness in cells (per edge).
    pub npml: usize,
}

impl SimGrid {
    /// Creates a grid.
    ///
    /// # Panics
    ///
    /// Panics if the interior (non-PML) region would be empty.
    pub fn new(nx: usize, ny: usize, dx: f64, npml: usize) -> Self {
        assert!(
            nx > 2 * npml + 2 && ny > 2 * npml + 2,
            "grid {nx}x{ny} too small for npml={npml}"
        );
        assert!(dx > 0.0, "cell pitch must be positive");
        Self { nx, ny, dx, npml }
    }

    /// Total number of unknowns (`nx·ny`).
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.nx * self.ny
    }

    /// Flat index of cell `(ix, iy)` — x-fastest ordering.
    #[inline(always)]
    pub fn idx(&self, ix: usize, iy: usize) -> usize {
        debug_assert!(ix < self.nx && iy < self.ny);
        iy * self.nx + ix
    }

    /// Inverse of [`SimGrid::idx`].
    #[inline(always)]
    pub fn coords(&self, k: usize) -> (usize, usize) {
        (k % self.nx, k / self.nx)
    }

    /// Physical domain width (µm).
    pub fn width(&self) -> f64 {
        self.nx as f64 * self.dx
    }

    /// Physical domain height (µm).
    pub fn height(&self) -> f64 {
        self.ny as f64 * self.dx
    }

    /// Range of x indices outside the PML.
    pub fn interior_x(&self) -> Range<usize> {
        self.npml..self.nx - self.npml
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        let g = SimGrid::new(33, 21, 0.04, 5);
        for iy in [0, 7, 20] {
            for ix in [0, 13, 32] {
                let k = g.idx(ix, iy);
                assert_eq!(g.coords(k), (ix, iy));
            }
        }
    }

    #[test]
    fn physical_coordinates() {
        let g = SimGrid::new(40, 40, 0.025, 8);
        assert!((g.width() - 1.0).abs() < 1e-12);
        assert!((g.height() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pml_membership() {
        let g = SimGrid::new(30, 30, 0.05, 6);
        assert_eq!(g.interior_x(), 6..24);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn too_small_grid_panics() {
        let _ = SimGrid::new(10, 30, 0.05, 5);
    }

    #[test]
    fn sign_helpers() {
        assert_eq!(Sign::Plus.as_f64(), 1.0);
        assert_eq!(Sign::Minus.as_f64(), -1.0);
    }
}
