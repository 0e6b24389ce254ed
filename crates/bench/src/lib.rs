//! # boson-bench — benchmark harness for every table and figure
//!
//! Binaries (run with `cargo run -p boson-bench --release --bin <name>`):
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `table1` | Table I — main results on all three benchmarks |
//! | `table2` | Table II — ablation study on the isolator |
//! | `table3` | Table III — ten-method comparison on the isolator |
//! | `fig5`   | Fig. 5 — optimisation trajectories (three configurations) |
//! | `fig6a`  | Fig. 6(a) — sampling-strategy comparison |
//! | `fig6b`  | Fig. 6(b) — subspace-relaxation epoch sweep |
//!
//! Environment knobs: `BOSON_ITERS` (optimisation iterations),
//! `BOSON_MC` (Monte-Carlo samples), `BOSON_FAST=1` (tiny smoke-test
//! settings), `BOSON_THREADS`.
//!
//! Criterion micro-benches live in `benches/` (operator assembly, banded
//! LU, litho kernels, adjoint gradients, the corner-cost scaling that
//! motivates the paper's adaptive sampling, the spectral/fused batched
//! sweeps, and the adaptive corner-subspace schedule); the gated subset
//! is driven by `scripts/bench.sh` — see `scripts/README.md` for every
//! recorded key and its acceptance floor.

use std::fmt::Write as _;

/// Shared experiment knobs, resolved from the environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpConfig {
    /// Optimisation iterations per run.
    pub iterations: usize,
    /// Monte-Carlo samples for post-fab evaluation.
    pub mc_samples: usize,
    /// Worker threads: [`boson_num::pool::default_threads`], so an
    /// invalid `BOSON_THREADS` fails loudly.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
}

impl ExpConfig {
    /// Reads the configuration from the environment with the given
    /// defaults; `BOSON_FAST=1` shrinks everything to smoke-test scale.
    pub fn from_env(default_iters: usize, default_mc: usize) -> Self {
        let fast = std::env::var("BOSON_FAST")
            .map(|v| v == "1")
            .unwrap_or(false);
        let geti = |k: &str, d: usize| -> usize {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        Self {
            iterations: geti("BOSON_ITERS", if fast { 4 } else { default_iters }),
            mc_samples: geti("BOSON_MC", if fast { 3 } else { default_mc }),
            threads: boson_num::pool::default_threads(),
            seed: geti("BOSON_SEED", 7) as u64,
        }
    }
}

/// A minimal fixed-width ASCII table builder for the harness binaries.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let sep: String = widths
            .iter()
            .map(|w| format!("+{}", "-".repeat(w + 2)))
            .collect::<String>()
            + "+";
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = w - cell.chars().count();
                let _ = write!(line, "| {cell}{} ", " ".repeat(pad));
            }
            line + "|"
        };
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out.push_str(&sep);
        out
    }
}

/// Formats a pre→post transition like the paper's arrows.
pub fn arrow(pre: f64, post: f64) -> String {
    format!("{pre:.4}→{post:.4}")
}

/// Formats a `[fwd, bwd]` transmission pair like Table III.
pub fn pair(fwd: f64, bwd: f64) -> String {
    format!("[{fwd:.4}, {bwd:.5}]")
}

/// Formats a FoM in compact scientific-or-fixed form like the paper.
pub fn fom_fmt(v: f64) -> String {
    if v != 0.0 && (v.abs() < 1e-2 || v.abs() >= 1e3) {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["method", "FoM"]);
        t.row(["BOSON-1", "0.97"]);
        t.row(["a-very-long-method-name", "0.1"]);
        let s = t.render();
        assert!(s.contains("BOSON-1"));
        assert!(s.contains("a-very-long-method-name"));
        let lens: Vec<usize> = s.lines().map(|l| l.chars().count()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{lens:?}");
    }

    #[test]
    fn arrow_and_pair_formats() {
        assert_eq!(arrow(0.9163, 0.0487), "0.9163→0.0487");
        assert!(pair(0.8275, 0.0022).starts_with("[0.8275"));
    }

    #[test]
    fn fom_formatting() {
        assert_eq!(fom_fmt(0.5), "0.5000");
        assert!(fom_fmt(4.89e-6).contains('e'));
        assert!(fom_fmt(3710.0).contains('e'));
    }

    #[test]
    fn env_config_defaults() {
        let c = ExpConfig::from_env(40, 20);
        assert!(c.iterations > 0);
        assert!(c.mc_samples > 0);
    }
}
