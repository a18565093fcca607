//! Allocation-regression smoke: steady-state SCF iterations must stay off
//! the allocator's hot path.
//!
//! This lives in its own test binary because the telemetry counters are
//! process-global — concurrent tests would pollute the per-iteration
//! deltas — and its two tests take turns under one lock for the same
//! reason. One runs the SCF under `par::sequential`, so every workspace
//! arena warms up on one deterministic thread; its twin lets the phases
//! fan out, where the arenas of the persistent `par` helpers must be just
//! as warm (the counters sum over every thread).

use qt_core::params::SimParams;
use qt_core::scf::{run_scf, ScfConfig, ScfResult, Simulation};
use qt_linalg::par;

#[global_allocator]
static ALLOC: qt_bench::alloc::CountingAllocator = qt_bench::alloc::CountingAllocator;

/// The two tests share the process-wide counters: one at a time.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run four forced SCF iterations; every iteration from `first_warm` on
/// must perform zero hot-path allocations.
fn check_warm_iterations(first_warm: usize, scf: impl FnOnce() -> ScfResult) {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let out = scf();
    assert_eq!(out.iterations, 4);
    let cold = &out.trajectory[0];
    assert!(
        cold.alloc_bytes > 0,
        "this binary installs the counting allocator"
    );
    assert!(
        cold.boundary_misses > 0,
        "iteration 0 must compute the contact self-energies"
    );
    for warm in &out.trajectory[first_warm..] {
        // Zero hot-path allocations: every pooled buffer is served from
        // the arenas and every contact Σ from the boundary cache.
        assert_eq!(
            warm.ws_fresh, 0,
            "iteration {}: workspace pool misses",
            warm.iteration
        );
        assert_eq!(
            warm.boundary_misses, 0,
            "iteration {}: Sancho-Rubio decimation recomputed",
            warm.iteration
        );
        // The residual traffic (escaping spectral tensors, per-atom SSE
        // partial sums) must stay far below the cold iteration, which pays
        // the decimation loops and arena warm-up on top.
        assert!(
            warm.alloc_bytes < cold.alloc_bytes / 2,
            "iteration {}: {} bytes allocated vs cold {} — hot path regressed",
            warm.iteration,
            warm.alloc_bytes,
            cold.alloc_bytes
        );
    }
}

fn four_iterations() -> ScfResult {
    let p = SimParams {
        nkz: 2,
        nqz: 2,
        ne: 16,
        nw: 3,
        na: 8,
        nb: 3,
        norb: 2,
        bnum: 4,
    };
    let sim = Simulation::new(p, -1.2, 1.2);
    let cfg = ScfConfig {
        max_iterations: 4,
        tolerance: 0.0, // force every iteration
        ..Default::default()
    };
    run_scf(&sim, &cfg).expect("SCF")
}

#[test]
fn warm_scf_iterations_are_allocation_free_on_the_hot_path() {
    check_warm_iterations(1, || par::sequential(four_iterations));
}

/// Fanned out, which thread takes which task is not fixed, so a helper may
/// meet a phase for the first time in iteration 1; from the second warm
/// iteration on every thread's arena holds its working set.
#[test]
fn warm_parallel_scf_iterations_are_allocation_free_on_every_thread() {
    check_warm_iterations(2, four_iterations);
}
