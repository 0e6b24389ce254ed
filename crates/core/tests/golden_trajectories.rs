//! Golden design trajectories: short robust runs of every benchmark
//! device under both solver strategies, one and three wavelengths, pinned
//! bit for bit against `fixtures/golden_trajectories.txt`.
//!
//! Per iteration the fixture holds the IEEE-754 bit patterns of the
//! robust objective and the nominal figure of merit, the factorisation
//! count and the subspace active set; per run it holds an FNV-1a hash of
//! the final latent vector's bits. Any change to the evaluation engine
//! that is meant to be arithmetic-preserving must keep every entry
//! identical.
//!
//! The direct-strategy broadband entries (`*/direct/k3`) were recorded
//! when every (corner, ω) entry ran its own fabrication VJP and the
//! spectral weights were applied afterwards; the runner now folds one
//! VJP per corner on the weighted sum of the pre-chain gradients. The
//! chain is linear in its seed, and under `WorstCase` the weights are
//! one-hot (exactly `1.0` on the worst wavelength), so the folded seed is
//! that wavelength's gradient bit for bit and these entries match
//! exactly too (measured relative deviation of objective and FoM: 0).
//!
//! The whole fixture was re-recorded when direct corner factors started
//! condensing the fixed slabs above and below the design window out of
//! the operator (`boson_fdfd::window`): a direct solve now eliminates the
//! slabs first and factors the window's Schur complement, a different
//! summation order from the plain banded LU. Without a factor lag, the
//! fresh nominal corner of an iterative run is factored the same way (its
//! plain factor stays the preconditioner), so the starved entry counts
//! three more factorisations per iteration. Measured against the previous
//! fixture, the largest relative change of the robust objective was
//! 1.2e-14 over the direct entries (`isolator/direct/k3`) and 9.2e-11
//! over all entries (`isolator/iterative/k3`, iteration 1, where the
//! Krylov tolerance of 1e-6 meets a changed warm start and direct
//! fallback); of the nominal figure of merit 3.6e-14 (`isolator/direct/k1`),
//! over all entries as well.
//!
//! It was re-recorded again when the window's Schur complement moved from
//! the pivoted banded LU to the unpivoted complex-symmetric `L·D·Lᵀ`
//! (`boson_num::banded::BandedLdl`), another summation order. Every
//! direct entry, `bend/starved/k3` and `isolator/iterative/k3` moved;
//! factorisation counts and active sets did not. Largest relative change
//! of the robust objective: 1.3e-14 over the direct entries
//! (`isolator/direct/k3`), 1.1e-10 over all entries
//! (`isolator/iterative/k3`); of the nominal figure of merit 2.9e-14
//! (`isolator/direct/k1` and `k3`).
//!
//! It was re-recorded again when direct columns other than the
//! fabrication-nominal entry at the centre wavelength started solving
//! only the design window's rows, reading their monitors and forming
//! their adjoints from data condensed into the slab cache
//! (`boson_fdfd::window::WindowTerms`), another summation order.
//! `bend/direct/k1`, `bend/direct/k3`, `bend/starved/k3`,
//! `isolator/direct/k1` and `isolator/direct/k3` moved; factorisation
//! counts and active sets did not. Largest relative change of the robust
//! objective: 2.8e-15 (`bend/direct/k1`); of the nominal figure of merit
//! 1.4e-15 (`bend/direct/k1`), 0 elsewhere.
//!
//! It was re-recorded again when the fixed slabs and the compile-time
//! straight-waveguide normalisation reference moved from the pivoted
//! banded LU to the unpivoted complex-symmetric `L·D·Lᵀ`
//! (`boson_fdfd::window::solve_reference`), another summation order.
//! Every entry moved: the launched power each figure of merit is
//! normalised by moves at rounding level. Largest relative change of the
//! robust objective: 1.3e-14 over the direct entries
//! (`isolator/direct/k1`), 1.7e-7 over all entries
//! (`crossing/iterative/k3`, where the Krylov tolerance meets a changed
//! warm start); of the nominal figure of merit 4.7e-14 over the direct
//! entries (`isolator/direct/k1` and `k3`) and 1.9e-7 over all
//! (`isolator/iterative/k3`). Active sets did not move; one factorisation
//! count did: `isolator/iterative/k3` iteration 1 went from 1 to 2, a
//! Krylov budget miss that now falls back to a direct factor.
//!
//! Re-record (prints the fixture to stdout):
//!
//! ```text
//! cargo test --release -p boson-core --test golden_trajectories -- \
//!     --ignored --nocapture record_golden_trajectories
//! ```

use boson_core::baselines::{levelset_param, standard_chain};
use boson_core::compiled::{CompiledProblem, RecycleConfig};
use boson_core::objective::SpectralAggregation;
use boson_core::problem::{bending, crossing, isolator, DeviceProblem};
use boson_core::runner::{InverseDesigner, RunResult, RunnerConfig};
use boson_core::schedule::RelaxationSchedule;
use boson_core::subspace::SubspaceConfig;
use boson_fab::{SamplingStrategy, SpectralAxis, VariationSpace};
use boson_fdfd::sim::SolverStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIXTURE: &str = include_str!("fixtures/golden_trajectories.txt");

#[derive(Clone, Copy)]
enum Device {
    Bend,
    Crossing,
    Isolator,
}

#[derive(Clone, Copy)]
struct Golden {
    name: &'static str,
    device: Device,
    iterative: bool,
    k3: bool,
    sampling: SamplingStrategy,
    /// Starved iteration budget (every varied column falls back).
    starved: bool,
    /// Subspace `M` (`None` = scheduler off).
    active_columns: Option<usize>,
    /// Optimisation iterations.
    iterations: usize,
}

/// Broadband iterative entries run two iterations: the second rides this
/// run's lagged factors, recycling stores, policy pins and (crossing)
/// the subspace schedule's partial epoch. That cross-iteration state is
/// the same code at K = 1, and direct runs carry no solver state across
/// iterations, so one iteration pins every other path — except the bend's
/// direct K = 1 entry, the benchmark's `bend-direct` workload, which also
/// pins the warm lane scratches of a second iteration.
const fn golden(
    name: &'static str,
    device: Device,
    iterative: bool,
    k3: bool,
    sampling: SamplingStrategy,
) -> Golden {
    Golden {
        name,
        device,
        iterative,
        k3,
        sampling,
        starved: false,
        active_columns: None,
        iterations: if iterative && k3 { 2 } else { 1 },
    }
}

const SINGLE: SamplingStrategy = SamplingStrategy::AxialSingleSided;
const WORST: SamplingStrategy = SamplingStrategy::AxialPlusWorst;

const GOLDENS: [Golden; 13] = [
    Golden {
        iterations: 2,
        ..golden("bend/direct/k1", Device::Bend, false, false, WORST)
    },
    golden("bend/direct/k3", Device::Bend, false, true, SINGLE),
    golden("bend/iterative/k1", Device::Bend, true, false, SINGLE),
    golden("bend/iterative/k3", Device::Bend, true, true, SINGLE),
    Golden {
        starved: true,
        ..golden("bend/starved/k3", Device::Bend, true, true, SINGLE)
    },
    golden("crossing/direct/k1", Device::Crossing, false, false, SINGLE),
    golden("crossing/direct/k3", Device::Crossing, false, true, SINGLE),
    golden(
        "crossing/iterative/k1",
        Device::Crossing,
        true,
        false,
        SINGLE,
    ),
    Golden {
        active_columns: Some(7),
        ..golden("crossing/iterative/k3", Device::Crossing, true, true, WORST)
    },
    golden("isolator/direct/k1", Device::Isolator, false, false, SINGLE),
    golden("isolator/direct/k3", Device::Isolator, false, true, SINGLE),
    golden(
        "isolator/iterative/k1",
        Device::Isolator,
        true,
        false,
        SINGLE,
    ),
    golden(
        "isolator/iterative/k3",
        Device::Isolator,
        true,
        true,
        SINGLE,
    ),
];

impl Golden {
    /// The starved entry runs K = 3 under `Mean` with recycling off, so
    /// the fixture also pins the un-recycled fused path and the `Mean`
    /// fold at K > 1; every other K = 3 entry is `WorstCase`.
    fn config(&self) -> RunnerConfig {
        let solver = match (self.iterative, self.starved) {
            (false, _) => SolverStrategy::Direct,
            (true, false) => SolverStrategy::preconditioned_iterative(),
            (true, true) => SolverStrategy::PreconditionedIterative {
                tol: 1e-300,
                max_iters: 1,
            },
        };
        RunnerConfig {
            iterations: self.iterations,
            sampling: self.sampling,
            relaxation: RelaxationSchedule::over(1),
            threads: 2,
            solver,
            spectral_agg: if self.k3 && !self.starved {
                SpectralAggregation::WorstCase
            } else {
                SpectralAggregation::Mean
            },
            subspace: self
                .active_columns
                .map_or_else(SubspaceConfig::default, SubspaceConfig::with_active_columns),
            recycle: if self.iterative && !self.starved {
                RecycleConfig::enabled()
            } else {
                RecycleConfig::default()
            },
            ..RunnerConfig::default()
        }
    }

    fn run(&self) -> RunResult {
        let problem: DeviceProblem = match self.device {
            Device::Bend => bending(),
            Device::Crossing => crossing(),
            Device::Isolator => isolator(),
        };
        let axis = SpectralAxis::around(0.02, if self.k3 { 3 } else { 1 });
        let compiled = CompiledProblem::compile_spectral(problem, axis).expect("compile");
        let problem = compiled.problem().clone();
        let param = levelset_param(&problem, false);
        let space = VariationSpace {
            spectral: axis,
            ..VariationSpace::default()
        };
        let mut designer = InverseDesigner::new(
            &compiled,
            &param,
            standard_chain(&problem),
            space,
            self.config(),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let theta0 = designer.initial_theta(&mut rng);
        designer.run(theta0)
    }
}

/// FNV-1a over the bit patterns of `values`.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One fixture line per iteration plus one θ-hash line.
fn table(name: &str, res: &RunResult) -> Vec<String> {
    let mut lines: Vec<String> = res
        .trajectory
        .iter()
        .map(|r| {
            let active = r.active_set.map_or_else(
                || "-".to_owned(),
                |a| format!("{}/{}/{}", a.active_columns, a.product_columns, a.refresh),
            );
            format!(
                "{name} {} {:016x} {:016x} {} {active}",
                r.iter,
                r.objective.to_bits(),
                r.fom_nominal.to_bits(),
                r.factorizations
            )
        })
        .collect();
    lines.push(format!("{name} theta {:016x}", fnv1a(&res.theta)));
    lines
}

fn check(g: &Golden) {
    let expected: Vec<&str> = FIXTURE
        .lines()
        .filter(|l| l.split_whitespace().next() == Some(g.name))
        .collect();
    assert!(!expected.is_empty(), "{}: no fixture entry", g.name);
    let got = table(g.name, &g.run());
    assert_eq!(got, expected, "{}", g.name);
}

#[test]
#[ignore = "prints the fixture; run with --ignored --nocapture to re-record"]
fn record_golden_trajectories() {
    println!("# name iter objective_bits fom_bits factorizations active/product/refresh");
    for g in &GOLDENS {
        for line in table(g.name, &g.run()) {
            println!("{line}");
        }
    }
}

macro_rules! golden_tests {
    ($($test:ident => $idx:expr,)*) => {
        $(
            #[test]
            fn $test() {
                check(&GOLDENS[$idx]);
            }
        )*
    };
}

golden_tests! {
    bend_direct_k1 => 0,
    bend_direct_k3 => 1,
    bend_iterative_k1 => 2,
    bend_iterative_k3 => 3,
    bend_starved_k3 => 4,
    crossing_direct_k1 => 5,
    crossing_direct_k3 => 6,
    crossing_iterative_k1 => 7,
    crossing_iterative_k3 => 8,
    isolator_direct_k1 => 9,
    isolator_direct_k3 => 10,
    isolator_iterative_k1 => 11,
    isolator_iterative_k3 => 12,
}
