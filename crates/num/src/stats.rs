//! Small statistics helpers for Monte-Carlo result aggregation.
//!
//! # Examples
//!
//! ```
//! use boson_num::stats::Summary;
//!
//! let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(s.mean, 2.5);
//! assert_eq!(s.min, 1.0);
//! assert_eq!(s.max, 4.0);
//! ```

/// Mean / standard deviation / extrema of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean (0 for empty input).
    pub mean: f64,
    /// Sample standard deviation (unbiased, 0 for n < 2).
    pub std: f64,
    /// Smallest sample (+inf for empty input).
    pub min: f64,
    /// Largest sample (-inf for empty input).
    pub max: f64,
}

impl Summary {
    /// Computes the summary of a slice of samples.
    pub fn from_samples(xs: &[f64]) -> Self {
        let n = xs.len();
        if n == 0 {
            return Self {
                n: 0,
                mean: 0.0,
                std: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            };
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Self {
            n,
            mean,
            std: var.sqrt(),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn summary_empty_and_singleton() {
        let e = Summary::from_samples(&[]);
        assert_eq!(e.n, 0);
        assert_eq!(e.mean, 0.0);
        let s = Summary::from_samples(&[3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
    }
}
