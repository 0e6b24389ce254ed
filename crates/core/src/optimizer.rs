//! First-order optimisers (Adam) for the latent design variables.
//!
//! The objective is *maximised*: `step` moves parameters along the
//! gradient (gradient ascent with Adam moment estimates).

use serde::{Deserialize, Serialize};

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay β₁.
    pub beta1: f64,
    /// Second-moment decay β₂.
    pub beta2: f64,
    /// Denominator stabiliser ε.
    pub eps: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 0.02,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// Adam optimiser state.
#[derive(Debug, Clone)]
pub struct Adam {
    config: AdamConfig,
    m: Vec<f64>,
    v: Vec<f64>,
    t: usize,
}

impl Adam {
    /// Creates the optimiser for `n` parameters.
    pub fn new(n: usize, config: AdamConfig) -> Self {
        Self {
            config,
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AdamConfig {
        &self.config
    }

    /// One ascent step: `params += lr·m̂/(√v̂ + ε)`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths disagree with the construction size.
    pub fn step(&mut self, params: &mut [f64], grad: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "parameter length mismatch");
        assert_eq!(grad.len(), self.m.len(), "gradient length mismatch");
        self.t += 1;
        let b1 = self.config.beta1;
        let b2 = self.config.beta2;
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * grad[i];
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * grad[i] * grad[i];
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            params[i] += self.config.lr * mhat / (vhat.sqrt() + self.config.eps);
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> usize {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maximises_concave_quadratic() {
        // f(x) = -(x-3)², gradient 2(3-x); Adam should find x ≈ 3.
        let mut x = vec![0.0];
        let mut opt = Adam::new(
            1,
            AdamConfig {
                lr: 0.1,
                ..Default::default()
            },
        );
        for _ in 0..500 {
            let g = 2.0 * (3.0 - x[0]);
            opt.step(&mut x, &g.into_iter_hack());
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x = {}", x[0]);
        assert_eq!(opt.steps(), 500);
    }

    // Helper so the test reads naturally with a scalar gradient.
    trait IntoIterHack {
        fn into_iter_hack(self) -> Vec<f64>;
    }
    impl IntoIterHack for f64 {
        fn into_iter_hack(self) -> Vec<f64> {
            vec![self]
        }
    }

    #[test]
    fn multi_dimensional_rosenbrock_ascent() {
        // Maximise -((1-a)² + 5(b-a²)²): optimum at (1, 1).
        let mut p = vec![-0.5, 0.5];
        let mut opt = Adam::new(
            2,
            AdamConfig {
                lr: 0.02,
                ..Default::default()
            },
        );
        for _ in 0..4000 {
            let (a, b) = (p[0], p[1]);
            let g = vec![
                2.0 * (1.0 - a) + 20.0 * a * (b - a * a),
                -10.0 * (b - a * a),
            ];
            opt.step(&mut p, &g);
        }
        assert!((p[0] - 1.0).abs() < 0.05, "a = {}", p[0]);
        assert!((p[1] - 1.0).abs() < 0.1, "b = {}", p[1]);
    }

    #[test]
    fn zero_gradient_is_stationary() {
        let mut p = vec![1.0, -2.0];
        let mut opt = Adam::new(2, AdamConfig::default());
        opt.step(&mut p, &[0.0, 0.0]);
        assert_eq!(p, vec![1.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_size_panics() {
        let mut p = vec![0.0; 3];
        let mut opt = Adam::new(2, AdamConfig::default());
        opt.step(&mut p, &[0.0, 0.0, 0.0]);
    }
}
