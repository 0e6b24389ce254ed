//! Pins the memory shape of the direct path: no single heap allocation of
//! a bend design run reaches the size of a plain pivoted banded LU of the
//! whole grid, `n×(3·nx + 1)` complex entries (24.7 MB on the 80×80
//! grid). The slabs around the design window, the window's Schur
//! complement and the compile-time normalisation reference all factor as
//! `L·D·Lᵀ`, `n×(nx + 1)` entries at most; only a fallback allocates a
//! plain factor.
//!
//! This is its own integration-test binary so the recording global
//! allocator sees no traffic from unrelated tests. Run it in release
//! (`cargo test --release -p boson-core --test largest_allocation`); it
//! also passes, slowly, in a debug build.

use boson_core::baselines::{levelset_param, standard_chain};
use boson_core::compiled::CompiledProblem;
use boson_core::eval::evaluate_post_fab;
use boson_core::problem::bending;
use boson_core::runner::{InverseDesigner, RunnerConfig};
use boson_fab::VariationSpace;
use boson_fdfd::sim::SolverStrategy;
use boson_num::Complex64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct RecordingAllocator;

/// The largest size any single allocation or reallocation asked for.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to the `System` allocator — every method
// forwards its arguments unchanged, so `System`'s layout/aliasing
// guarantees carry over verbatim; the only addition is a Relaxed
// fetch_max on a counter, which allocates nothing.
unsafe impl GlobalAlloc for RecordingAllocator {
    // SAFETY: same contract as the trait method; the body is delegated to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded contract — caller obeys `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as the trait method; the body is delegated to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded contract, as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as the trait method; the body is delegated to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: forwarded contract — `ptr`/`layout` came from this
        // allocator, which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as the trait method; the body is delegated to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract — `ptr` was allocated by `System`
        // through the methods above with the same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: RecordingAllocator = RecordingAllocator;

/// Compiling the bend, one `Direct` runner iteration over two lanes and
/// one post-fabrication sample allocate nothing as large as a plain
/// whole-grid factor.
#[test]
fn no_allocation_reaches_a_plain_whole_grid_factor() {
    let compiled = CompiledProblem::compile(bending()).expect("compile");
    let problem = compiled.problem().clone();
    let grid = problem.grid;
    let plain = grid.n() * (3 * grid.nx + 1) * std::mem::size_of::<Complex64>();
    let param = levelset_param(&problem, false);
    let theta0 = param.theta_from_geometry(&problem.seed);
    let chain = standard_chain(&problem);
    let config = RunnerConfig {
        iterations: 1,
        threads: 2,
        solver: SolverStrategy::Direct,
        ..RunnerConfig::default()
    };
    let space = VariationSpace::default();
    let mut designer =
        InverseDesigner::new(&compiled, &param, chain.clone(), space.clone(), config);
    let result = designer.run(theta0);
    assert_eq!(result.trajectory.len(), 1);
    let report = evaluate_post_fab(&compiled, &chain, &space, &result.mask, 1, 7);
    assert!(report.samples.len() == 1 && report.samples[0].is_finite());
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < plain,
        "largest allocation {largest} B reaches a plain factor's {plain} B"
    );
}
