//! Objective and auxiliary-constraint specification (paper Eq. 2).
//!
//! The conventional inverse-design objective is a single *sparse* reading
//! (power at one output monitor), which the paper shows yields a hostile
//! loss landscape with vanishing gradients. BOSON-1 adds *dense* auxiliary
//! objectives — hinge penalties on extra monitors (reflection, radiation,
//! crosstalk) — that vanish once satisfied, leaving the main objective in
//! charge near convergence.
//!
//! Objectives are always *maximised* here; "minimise contrast" is encoded
//! as maximising its negation.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Numerical floor added to denominators in ratio objectives.
pub const RATIO_FLOOR: f64 = 1e-6;

/// Direction of an auxiliary constraint bound.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Bound {
    /// Reading must be at least this value (e.g. transmission ≥ 0.8).
    AtLeast(f64),
    /// Reading must be at most this value (e.g. reflection ≤ 0.1).
    AtMost(f64),
}

/// One auxiliary penalty term `w·[F_i − C_i]₊`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// Excitation index the monitored reading belongs to.
    pub excitation: usize,
    /// Monitor name within that excitation.
    pub monitor: String,
    /// Bound direction and value.
    pub bound: Bound,
    /// Penalty weight `w_i`.
    pub weight: f64,
}

/// The main (reported) figure of merit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MainObjective {
    /// Maximise one monitor power (bending / crossing transmission).
    MaximizePower {
        /// Excitation index.
        excitation: usize,
        /// Monitor name.
        monitor: String,
    },
    /// Minimise the isolation contrast `Σ bwd / (fwd + δ)`.
    MinimizeContrast {
        /// Forward-transmission reading `(excitation, monitor)`.
        fwd: (usize, String),
        /// Backward-leak readings, summed.
        bwd: Vec<(usize, String)>,
    },
}

/// Full objective: main FoM plus dense auxiliary penalties.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveSpec {
    /// The main objective.
    pub main: MainObjective,
    /// Auxiliary hinge constraints (may be emptied to model the sparse
    /// baseline objective).
    pub constraints: Vec<Constraint>,
}

/// Monitor readings for all excitations: `readings[excitation][monitor]`.
pub type Readings = Vec<HashMap<String, f64>>;

/// How the per-wavelength objective values of one fabrication corner
/// combine into its contribution to the robust objective (the spectral
/// axis' analogue of the corner-weighted sum).
///
/// Both variants expose exact gradients through
/// [`SpectralAggregation::weights_into_masked`]: the aggregate is a
/// weighted sum `Σ w_k·obj_k` with `Σ w_k = 1` and `∂agg/∂obj_k = w_k` (for
/// [`SpectralAggregation::WorstCase`] this is the subgradient at the
/// active wavelength, exact almost everywhere), so the per-ω adjoint
/// gradients flow through unchanged — no finite differencing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SpectralAggregation {
    /// Uniform average over the K wavelengths. With `K = 1` this is the
    /// identity, reproducing the single-ω pipeline bit-identically.
    #[default]
    Mean,
    /// The worst wavelength dominates: the aggregate is `min_k obj_k`
    /// (objectives are maximised), all weight on the first minimiser.
    WorstCase,
}

impl SpectralAggregation {
    /// The aggregate over the `active` subset of `values` (one objective
    /// per wavelength). An all-`true` mask aggregates every wavelength —
    /// the full sweep; a partial mask is the partial sweep's view of a
    /// fabrication corner whose dormant wavelengths were not evaluated
    /// this iteration (the adaptive subspace scheduler,
    /// [`crate::subspace`]). Inactive entries are ignored entirely: they
    /// contribute neither value nor weight, exactly as if the corner's
    /// spectral axis had only its active samples — which is what makes
    /// the `M = full` subspace schedule indistinguishable from the fused
    /// full sweep.
    ///
    /// # Panics
    ///
    /// Panics if `values` and `active` disagree in length or the active
    /// subset is empty.
    pub fn aggregate_masked(&self, values: &[f64], active: &[bool]) -> f64 {
        assert_eq!(values.len(), active.len(), "mask length mismatch");
        let count = active.iter().filter(|&&a| a).count();
        assert!(count > 0, "no active wavelengths to aggregate");
        match self {
            // Σ (w·v) with w = 1/K, matching `weights_into_masked`
            // term-for-term so aggregate and gradient weights are exactly
            // consistent (and K = 1 reduces to `1.0 * v`, bit-identical to
            // v alone inside the runner's weighted corner sum).
            SpectralAggregation::Mean => {
                let w = 1.0 / count as f64;
                values
                    .iter()
                    .zip(active)
                    .filter(|(_, &a)| a)
                    .map(|(v, _)| w * v)
                    .sum()
            }
            SpectralAggregation::WorstCase => values
                .iter()
                .zip(active)
                .filter(|(_, &a)| a)
                .map(|(&v, _)| v)
                .fold(f64::INFINITY, f64::min),
        }
    }

    /// Writes the per-wavelength gradient weights `w_k = ∂agg/∂obj_k` of
    /// [`SpectralAggregation::aggregate_masked`] into `out`: `Σ w_k = 1`
    /// over the `active` subset, inactive entries receiving exactly `0.0`
    /// (their values are never read).
    ///
    /// [`SpectralAggregation::WorstCase`] puts all weight on the
    /// **lowest-index** active minimiser: when two wavelengths share the
    /// exact minimum the subgradient is not unique, and a deterministic,
    /// order-independent tie-break (strict `<` scan from the first active
    /// index) keeps the gradient — and therefore whole optimisation
    /// trajectories — reproducible across evaluation orders, serial ↔
    /// threaded runs and fused ↔ per-ω sweeps.
    ///
    /// # Panics
    ///
    /// Panics if the three slices disagree in length or the active subset
    /// is empty.
    pub fn weights_into_masked(&self, values: &[f64], active: &[bool], out: &mut [f64]) {
        assert_eq!(values.len(), active.len(), "mask length mismatch");
        assert_eq!(values.len(), out.len(), "weight buffer length mismatch");
        let count = active.iter().filter(|&&a| a).count();
        assert!(count > 0, "no active wavelengths to aggregate");
        out.fill(0.0);
        match self {
            SpectralAggregation::Mean => {
                let w = 1.0 / count as f64;
                for (o, &a) in out.iter_mut().zip(active) {
                    if a {
                        *o = w;
                    }
                }
            }
            SpectralAggregation::WorstCase => {
                // Explicit strict-< scan: ties keep the earliest active
                // ω index, by construction rather than by iterator
                // implementation detail. (A NaN compares false, so it
                // never displaces an earlier entry; the runner never
                // produces one — the solver breaks down first.)
                let mut argmin: Option<usize> = None;
                for (i, (&v, &a)) in values.iter().zip(active).enumerate() {
                    if a && argmin.is_none_or(|am| v < values[am]) {
                        argmin = Some(i);
                    }
                }
                out[argmin.expect("active subset is non-empty")] = 1.0;
            }
        }
    }
}

impl ObjectiveSpec {
    /// Copy of this spec with all auxiliary constraints removed — the
    /// conventional sparse objective used by the ablation/baselines.
    pub fn sparse(&self) -> ObjectiveSpec {
        ObjectiveSpec {
            main: self.main.clone(),
            constraints: Vec::new(),
        }
    }

    /// The *reported* figure of merit (higher-is-better for power
    /// objectives, the contrast itself for contrast objectives — callers
    /// know which way is up via [`ObjectiveSpec::fom_higher_is_better`]).
    pub fn fom(&self, readings: &Readings) -> f64 {
        match &self.main {
            MainObjective::MaximizePower {
                excitation,
                monitor,
            } => read(readings, *excitation, monitor),
            MainObjective::MinimizeContrast { fwd, bwd } => {
                let f = read(readings, fwd.0, &fwd.1);
                let b: f64 = bwd.iter().map(|(e, m)| read(readings, *e, m)).sum();
                b / (f + RATIO_FLOOR)
            }
        }
    }

    /// `true` when larger FoM values are better.
    pub fn fom_higher_is_better(&self) -> bool {
        matches!(self.main, MainObjective::MaximizePower { .. })
    }

    /// The scalar objective value that the optimiser maximises:
    /// main term minus penalty terms.
    pub fn objective(&self, readings: &Readings) -> f64 {
        let main = match &self.main {
            MainObjective::MaximizePower { .. } => self.fom(readings),
            MainObjective::MinimizeContrast { .. } => -self.fom(readings),
        };
        main - self.penalty(readings)
    }

    /// Total hinge penalty `Σ w_i·[violation]₊`.
    pub fn penalty(&self, readings: &Readings) -> f64 {
        self.constraints
            .iter()
            .map(|c| {
                let v = read(readings, c.excitation, &c.monitor);
                let violation = match c.bound {
                    Bound::AtLeast(t) => (t - v).max(0.0),
                    Bound::AtMost(t) => (v - t).max(0.0),
                };
                c.weight * violation
            })
            .sum()
    }

    /// Partial derivatives `∂objective/∂reading` for every reading that
    /// matters, as `(excitation, monitor, ∂obj/∂P)` triples.
    pub fn objective_grad(&self, readings: &Readings) -> Vec<(usize, String, f64)> {
        let mut grads: HashMap<(usize, String), f64> = HashMap::new();
        match &self.main {
            MainObjective::MaximizePower {
                excitation,
                monitor,
            } => {
                *grads.entry((*excitation, monitor.clone())).or_default() += 1.0;
            }
            MainObjective::MinimizeContrast { fwd, bwd } => {
                let f = read(readings, fwd.0, &fwd.1);
                let b: f64 = bwd.iter().map(|(e, m)| read(readings, *e, m)).sum();
                // obj_main = -b/(f+δ):  ∂/∂b_i = -1/(f+δ), ∂/∂f = b/(f+δ)².
                let denom = f + RATIO_FLOOR;
                for (e, m) in bwd {
                    *grads.entry((*e, m.clone())).or_default() += -1.0 / denom;
                }
                *grads.entry((fwd.0, fwd.1.clone())).or_default() += b / (denom * denom);
            }
        }
        for c in &self.constraints {
            let v = read(readings, c.excitation, &c.monitor);
            let g = match c.bound {
                // penalty = w(t−v)₊ ⇒ ∂obj/∂v = +w while violated.
                Bound::AtLeast(t) => {
                    if v < t {
                        c.weight
                    } else {
                        0.0
                    }
                }
                // penalty = w(v−t)₊ ⇒ ∂obj/∂v = −w while violated.
                Bound::AtMost(t) => {
                    if v > t {
                        -c.weight
                    } else {
                        0.0
                    }
                }
            };
            if g != 0.0 {
                *grads.entry((c.excitation, c.monitor.clone())).or_default() += g;
            }
        }
        grads.into_iter().map(|((e, m), g)| (e, m, g)).collect()
    }
}

fn read(readings: &Readings, excitation: usize, monitor: &str) -> f64 {
    *readings
        .get(excitation)
        .and_then(|m| m.get(monitor))
        .unwrap_or_else(|| panic!("missing reading: excitation {excitation} monitor {monitor}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn readings(pairs: &[(usize, &str, f64)]) -> Readings {
        let n = pairs.iter().map(|p| p.0).max().unwrap_or(0) + 1;
        let mut out: Readings = vec![HashMap::new(); n];
        for (e, m, v) in pairs {
            out[*e].insert((*m).to_owned(), *v);
        }
        out
    }

    fn power_spec() -> ObjectiveSpec {
        ObjectiveSpec {
            main: MainObjective::MaximizePower {
                excitation: 0,
                monitor: "trans".into(),
            },
            constraints: vec![
                Constraint {
                    excitation: 0,
                    monitor: "refl".into(),
                    bound: Bound::AtMost(0.1),
                    weight: 0.5,
                },
                Constraint {
                    excitation: 0,
                    monitor: "trans".into(),
                    bound: Bound::AtLeast(0.8),
                    weight: 1.0,
                },
            ],
        }
    }

    #[test]
    fn objective_without_violations_is_main() {
        let spec = power_spec();
        let r = readings(&[(0, "trans", 0.9), (0, "refl", 0.05)]);
        assert!((spec.objective(&r) - 0.9).abs() < 1e-12);
        assert_eq!(spec.penalty(&r), 0.0);
        assert_eq!(spec.fom(&r), 0.9);
        assert!(spec.fom_higher_is_better());
    }

    #[test]
    fn penalties_subtract_when_violated() {
        let spec = power_spec();
        let r = readings(&[(0, "trans", 0.5), (0, "refl", 0.3)]);
        // penalty = 0.5·(0.3−0.1) + 1.0·(0.8−0.5) = 0.1 + 0.3
        assert!((spec.penalty(&r) - 0.4).abs() < 1e-12);
        assert!((spec.objective(&r) - (0.5 - 0.4)).abs() < 1e-12);
    }

    #[test]
    fn gradient_signs() {
        let spec = power_spec();
        let r = readings(&[(0, "trans", 0.5), (0, "refl", 0.3)]);
        let grads = spec.objective_grad(&r);
        let g = |name: &str| -> f64 {
            grads
                .iter()
                .find(|(_, m, _)| m == name)
                .map(|(_, _, v)| *v)
                .unwrap_or(0.0)
        };
        // trans: main +1, violated AtLeast adds +1.
        assert!((g("trans") - 2.0).abs() < 1e-12);
        // refl: violated AtMost pushes down.
        assert!((g("refl") + 0.5).abs() < 1e-12);
    }

    #[test]
    fn contrast_objective_and_grad() {
        let spec = ObjectiveSpec {
            main: MainObjective::MinimizeContrast {
                fwd: (0, "trans3".into()),
                bwd: vec![(1, "leak0".into()), (1, "leak2".into())],
            },
            constraints: vec![],
        };
        let r = readings(&[(0, "trans3", 0.8), (1, "leak0", 0.02), (1, "leak2", 0.02)]);
        let c = spec.fom(&r);
        assert!((c - 0.04 / (0.8 + RATIO_FLOOR)).abs() < 1e-9);
        assert!(!spec.fom_higher_is_better());
        assert!((spec.objective(&r) + c).abs() < 1e-12);
        let grads = spec.objective_grad(&r);
        // Raising fwd power raises the objective; raising leaks lowers it.
        for (e, m, g) in &grads {
            if m == "trans3" {
                assert!(*g > 0.0, "({e},{m})");
            } else {
                assert!(*g < 0.0, "({e},{m})");
            }
        }
        // FD check on the objective gradient.
        let h = 1e-7;
        for (e, m, g) in grads {
            let mut rp = r.clone();
            *rp[e].get_mut(&m).unwrap() += h;
            let fd = (spec.objective(&rp) - spec.objective(&r)) / h;
            assert!(
                (fd - g).abs() < 1e-5 * (1.0 + fd.abs()),
                "({e},{m}): {fd} vs {g}"
            );
        }
    }

    #[test]
    fn sparse_strips_constraints() {
        let spec = power_spec();
        let sparse = spec.sparse();
        assert!(sparse.constraints.is_empty());
        let r = readings(&[(0, "trans", 0.2), (0, "refl", 0.9)]);
        assert_eq!(sparse.objective(&r), 0.2);
    }

    #[test]
    fn spectral_aggregation_values_and_weights() {
        let vs = [0.8, 0.3, 0.6];
        let all = [true; 3];
        let mut w = [0.0; 3];

        let mean = SpectralAggregation::Mean;
        assert!((mean.aggregate_masked(&vs, &all) - (0.8 + 0.3 + 0.6) / 3.0).abs() < 1e-12);
        mean.weights_into_masked(&vs, &all, &mut w);
        assert!(w.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-12));

        let worst = SpectralAggregation::WorstCase;
        assert_eq!(worst.aggregate_masked(&vs, &all), 0.3);
        worst.weights_into_masked(&vs, &all, &mut w);
        assert_eq!(w, [0.0, 1.0, 0.0]);

        // The aggregate is the weight-consistent sum: Σ w·v == agg.
        for agg in [mean, worst] {
            agg.weights_into_masked(&vs, &all, &mut w);
            let sum: f64 = w.iter().zip(&vs).map(|(wk, v)| wk * v).sum();
            assert!(
                (sum - agg.aggregate_masked(&vs, &all)).abs() < 1e-12,
                "{agg:?}"
            );
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }

        // K = 1: both aggregations are the identity — the spectral axis
        // degenerates away exactly.
        for agg in [mean, worst] {
            assert_eq!(agg.aggregate_masked(&[0.7], &[true]), 0.7, "{agg:?}");
            let mut w1 = [0.0];
            agg.weights_into_masked(&[0.7], &[true], &mut w1);
            assert_eq!(w1, [1.0], "{agg:?}");
        }
    }

    #[test]
    fn masked_aggregation_ignores_inactive_entries() {
        let vs = [0.8, 0.3, 0.6];
        let mut w = [0.0; 3];
        // Partial mask: the inactive middle entry (the global minimum)
        // contributes nothing — values or weights.
        let active = [true, false, true];
        let mean = SpectralAggregation::Mean;
        assert!((mean.aggregate_masked(&vs, &active) - (0.8 + 0.6) / 2.0).abs() < 1e-15);
        mean.weights_into_masked(&vs, &active, &mut w);
        assert_eq!(w, [0.5, 0.0, 0.5]);
        let worst = SpectralAggregation::WorstCase;
        assert_eq!(worst.aggregate_masked(&vs, &active), 0.6);
        worst.weights_into_masked(&vs, &active, &mut w);
        assert_eq!(w, [0.0, 0.0, 1.0]);
        // Inactive values are never read: poisoning them changes nothing.
        let poisoned = [0.8, f64::NAN, 0.6];
        assert_eq!(worst.aggregate_masked(&poisoned, &active), 0.6);
        worst.weights_into_masked(&poisoned, &active, &mut w);
        assert_eq!(w, [0.0, 0.0, 1.0]);
        // Ties among active entries keep the lowest active index.
        worst.weights_into_masked(&[0.5, 0.3, 0.3], &[false, true, true], &mut w);
        assert_eq!(w, [0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "no active wavelengths")]
    fn masked_aggregation_rejects_empty_active_set() {
        SpectralAggregation::Mean.aggregate_masked(&[1.0, 2.0], &[false, false]);
    }

    /// Two wavelengths sharing the exact minimum: the worst-case
    /// subgradient must deterministically pick the lowest ω index —
    /// whatever the tie's position — so gradients don't depend on
    /// evaluation order (the property that keeps serial ↔ threaded and
    /// fused ↔ per-ω runs bit-identical at a tie).
    #[test]
    fn worst_case_tied_minimum_takes_lowest_omega_index() {
        let worst = SpectralAggregation::WorstCase;
        let all = [true; 3];
        let mut w = [0.0; 3];

        // Tie between indices 1 and 2 → weight on 1.
        worst.weights_into_masked(&[0.8, 0.3, 0.3], &all, &mut w);
        assert_eq!(w, [0.0, 1.0, 0.0]);
        // Tie between indices 0 and 2 → weight on 0.
        worst.weights_into_masked(&[0.3, 0.8, 0.3], &all, &mut w);
        assert_eq!(w, [1.0, 0.0, 0.0]);
        // All tied → weight on 0.
        worst.weights_into_masked(&[0.3, 0.3, 0.3], &all, &mut w);
        assert_eq!(w, [1.0, 0.0, 0.0]);
        // Signed zeros compare equal: -0.0 at a later index must not
        // displace +0.0 at an earlier one.
        let mut w2 = [0.0; 2];
        worst.weights_into_masked(&[0.0, -0.0], &[true; 2], &mut w2);
        assert_eq!(w2, [1.0, 0.0]);

        // The aggregate stays the weight-consistent sum at a tie, and the
        // gradient weights are reversal-stable: reversing the tied pair
        // moves the weight to the (new) lowest index, never "the one seen
        // last".
        let tied = [0.5, 0.2, 0.2];
        assert_eq!(worst.aggregate_masked(&tied, &all), 0.2);
        worst.weights_into_masked(&tied, &all, &mut w);
        let sum: f64 = w.iter().zip(&tied).map(|(wk, v)| wk * v).sum();
        assert_eq!(sum, worst.aggregate_masked(&tied, &all));
        let reversed = [0.2, 0.2, 0.5];
        worst.weights_into_masked(&reversed, &all, &mut w);
        assert_eq!(w, [1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "missing reading")]
    fn missing_reading_panics() {
        let spec = power_spec();
        let r = readings(&[(0, "trans", 0.5)]);
        let _ = spec.objective(&r);
    }
}
