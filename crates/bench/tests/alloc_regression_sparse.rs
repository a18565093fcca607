//! Allocation-regression smoke for the sparse RGF path (feature
//! `count-alloc`): warm solves through the auto-selector must serve every
//! scratch buffer — dense workspace *and* pooled CSR storage — from the
//! arenas.
//!
//! Separate test binary from `alloc_regression` for the same reason that
//! one documents: the telemetry counters are process-global, so each
//! allocation assertion needs its own process. The solve runs inside a
//! 1-thread rayon pool so the arenas warm up on one deterministic worker.
#![cfg(feature = "count-alloc")]

use qt_core::rgf::{self, KernelSelector, MultiplyStrategy};
use qt_telemetry::counters::{self, Counter};

#[global_allocator]
static ALLOC: qt_bench::alloc::CountingAllocator = qt_bench::alloc::CountingAllocator;

#[test]
fn warm_sparse_selected_solves_are_allocation_free_on_the_hot_path() {
    let (blocks, bs) = (6usize, 32usize);
    let (a, sig) = qt_bench::sparse_rgf_problem(blocks, bs, 0.05, 7);
    // dense_rate = 0 forces the crossover to 1.0: every coupling block
    // routes through the CSR kernels regardless of measured density, so
    // the pooled sparse scratch (from_dense_pooled / recycle) is what
    // this test exercises.
    let auto = MultiplyStrategy::Auto {
        dense_rate: 0.0,
        sparse_rate: 1.0,
        band: 0.1,
    };
    let sel = KernelSelector::new(blocks - 1);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("rayon pool");
    pool.install(|| {
        qt_telemetry::set_enabled(true);
        qt_telemetry::reset_all();
        let solve = || {
            let out = rgf::rgf_with_selector(&a, &sig, auto, Some(&sel)).expect("rgf");
            // Return the output blocks so the next solve draws them from
            // the pool instead of the heap, like the SCF loop does.
            for m in out
                .gr_diag
                .into_iter()
                .chain(out.gl_diag)
                .chain(out.gg_diag)
                .chain(out.gr_lower)
                .chain(out.gr_upper)
                .chain(out.gl_lower)
            {
                qt_linalg::workspace::give(m);
            }
        };
        solve();
        for n in 0..blocks - 1 {
            assert_eq!(
                sel.choice(n),
                Some(true),
                "coupling {n}: selector must route sparse with a clamped crossover"
            );
        }
        let cold_fresh = counters::total(Counter::WsFresh);
        let cold_bytes = counters::total(Counter::AllocBytes);
        assert!(cold_fresh > 0, "cold solve must populate the arenas");
        assert!(
            cold_bytes > 0,
            "counting allocator must be active under --features count-alloc"
        );
        for warm in 1..=3u32 {
            let fresh0 = counters::total(Counter::WsFresh);
            let bytes0 = counters::total(Counter::AllocBytes);
            solve();
            assert_eq!(
                counters::total(Counter::WsFresh),
                fresh0,
                "warm solve {warm}: workspace pool misses"
            );
            let warm_bytes = counters::total(Counter::AllocBytes) - bytes0;
            assert!(
                warm_bytes < cold_bytes / 2,
                "warm solve {warm}: {warm_bytes} bytes allocated vs cold {cold_bytes} — \
                 sparse hot path regressed"
            );
        }
    });
}
