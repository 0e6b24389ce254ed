//! Dense row-major 2-D arrays.
//!
//! [`Array2`] is the workhorse container for fields, permittivity maps,
//! masks and intensity images throughout the stack. Indexing is
//! `(row, col)` = `(y, x)` — row `j` selects a *y* position, column `i`
//! selects an *x* position, matching image conventions used by the
//! lithography model.
//!
//! # Examples
//!
//! ```
//! use boson_num::Array2;
//!
//! let mut a = Array2::zeros(2, 3);
//! a[(1, 2)] = 5.0;
//! assert_eq!(a.rows(), 2);
//! assert_eq!(a.cols(), 3);
//! assert_eq!(a[(1, 2)], 5.0);
//! let b = a.map(|v| v * 2.0);
//! assert_eq!(b[(1, 2)], 10.0);
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

use crate::Complex64;

/// A dense, row-major 2-D array.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Array2<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: fmt::Debug> fmt::Debug for Array2<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Array2 {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            let cshow = self.cols.min(8);
            write!(f, "  ")?;
            for c in 0..cshow {
                write!(f, "{:?} ", self.data[r * self.cols + c])?;
            }
            if cshow < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl<T: Clone + Default> Array2<T> {
    /// Creates an array of the given shape filled with `T::default()`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }
}

impl<T: Clone> Array2<T> {
    /// Creates an array filled with copies of `fill`.
    pub fn filled(rows: usize, cols: usize, fill: T) -> Self {
        Self {
            rows,
            cols,
            data: vec![fill; rows * cols],
        }
    }

    /// Builds an array from a row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Array2::from_vec: data length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds an array by evaluating `f(row, col)` at every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Returns an owned copy of the `r`-th row.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> Vec<T> {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        self.data[r * self.cols..(r + 1) * self.cols].to_vec()
    }

    /// Returns an owned copy of the `c`-th column.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<T> {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c].clone())
            .collect()
    }

    /// Extracts the rectangular sub-array with rows `r0..r0+h`, cols `c0..c0+w`.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the array bounds.
    pub fn window(&self, r0: usize, c0: usize, h: usize, w: usize) -> Self {
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "window out of bounds"
        );
        Self::from_fn(h, w, |r, c| self[(r0 + r, c0 + c)].clone())
    }
}

impl<T> Array2<T> {
    /// Number of rows (the *y* extent).
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the *x* extent).
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the array has no elements.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `(rows, cols)` pair.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major view of the underlying data.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat row-major view of the underlying data.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Element-wise map producing a new array.
    pub fn map<U>(&self, f: impl Fn(&T) -> U) -> Array2<U> {
        Array2 {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(f).collect(),
        }
    }

    /// Element-wise combination of two equally-shaped arrays.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map<U, V>(&self, other: &Array2<U>, f: impl Fn(&T, &U) -> V) -> Array2<V> {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        Array2 {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| f(a, b))
                .collect(),
        }
    }

    /// Applies `f` in place to every element.
    pub fn apply(&mut self, f: impl Fn(&mut T)) {
        for v in &mut self.data {
            f(v);
        }
    }

    /// Iterates over `((row, col), &value)` pairs in row-major order.
    pub fn indexed_iter(&self) -> impl Iterator<Item = ((usize, usize), &T)> {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(k, v)| ((k / cols, k % cols), v))
    }
}

impl Array2<f64> {
    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements; `0.0` for empty arrays.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Largest element; `-inf` for empty arrays.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest element; `+inf` for empty arrays.
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// L2 norm of the flattened array.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl Array2<Complex64> {
    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt()
    }
}

impl<T> Index<(usize, usize)> for Array2<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl<T> IndexMut<(usize, usize)> for Array2<T> {
    #[inline(always)]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl<T: Copy + Add<Output = T>> Add for &Array2<T> {
    type Output = Array2<T>;
    fn add(self, rhs: Self) -> Array2<T> {
        self.zip_map(rhs, |&a, &b| a + b)
    }
}

impl<T: Copy + Sub<Output = T>> Sub for &Array2<T> {
    type Output = Array2<T>;
    fn sub(self, rhs: Self) -> Array2<T> {
        self.zip_map(rhs, |&a, &b| a - b)
    }
}

impl<T: Copy + Mul<Output = T>> Mul for &Array2<T> {
    type Output = Array2<T>;
    fn mul(self, rhs: Self) -> Array2<T> {
        self.zip_map(rhs, |&a, &b| a * b)
    }
}

impl<T: Copy + AddAssign> AddAssign<&Array2<T>> for Array2<T> {
    fn add_assign(&mut self, rhs: &Array2<T>) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    #[test]
    fn construction_and_shape() {
        let a: Array2<f64> = Array2::zeros(3, 4);
        assert_eq!(a.shape(), (3, 4));
        assert_eq!(a.len(), 12);
        assert!(!a.is_empty());
        let b = Array2::filled(2, 2, 7.0);
        assert_eq!(b.sum(), 28.0);
    }

    #[test]
    fn from_fn_row_major_order() {
        let a = Array2::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(a[(1, 2)], 12.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_wrong_len_panics() {
        let _ = Array2::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn rows_cols_extraction() {
        let a = Array2::from_fn(3, 2, |r, c| (r * 2 + c) as f64);
        assert_eq!(a.row(1), vec![2.0, 3.0]);
        assert_eq!(a.col(0), vec![0.0, 2.0, 4.0]);
    }

    #[test]
    fn window_and_paste_round_trip() {
        let a = Array2::from_fn(6, 6, |r, c| (r * 6 + c) as f64);
        let w = a.window(2, 3, 2, 2);
        assert_eq!(w[(0, 0)], a[(2, 3)]);
        assert_eq!(w[(1, 1)], a[(3, 4)]);
        assert_eq!(w.shape(), (2, 2));
    }

    #[test]
    fn map_and_zip_map() {
        let a = Array2::filled(2, 2, 3.0);
        let b = Array2::filled(2, 2, 4.0);
        let c = a.zip_map(&b, |x, y| x * y);
        assert_eq!(c.sum(), 48.0);
        let d = c.map(|v| v - 12.0);
        assert_eq!(d.sum(), 0.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Array2::filled(2, 2, 1.5);
        let b = Array2::filled(2, 2, 0.5);
        assert_eq!((&a + &b).sum(), 8.0);
        assert_eq!((&a - &b).sum(), 4.0);
        assert_eq!((&a * &b).sum(), 3.0);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.sum(), 8.0);
    }

    #[test]
    fn complex_helpers() {
        let a = Array2::filled(2, 2, c64(3.0, 4.0));
        assert!((a.norm() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn stats_on_reals() {
        let a = Array2::from_vec(1, 4, vec![1.0, -2.0, 3.0, 0.0]);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.mean(), 0.5);
        assert!((a.norm() - (14.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn indexed_iter_covers_all() {
        let a = Array2::from_fn(2, 2, |r, c| r + c);
        let collected: Vec<_> = a.indexed_iter().map(|((r, c), &v)| (r, c, v)).collect();
        assert_eq!(collected, vec![(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 2)]);
    }
}
