//! Allocation-regression smoke for the sparse RGF path: warm CSRMM solves
//! must serve every scratch buffer — dense workspace *and* pooled CSR
//! storage — from the arenas.
//!
//! Separate test binary from `alloc_regression` for the same reason that
//! one documents: the telemetry counters are process-global, so the
//! allocation assertions need their own process and take turns inside it.
//! One test solves under `par::sequential`, so the arenas warm up on one
//! deterministic thread; its twin solves 64-wide blocks, whose dense
//! products band-split onto the `par` helpers and their pack pools.

use qt_core::rgf::{self, MultiplyStrategy};
use qt_linalg::par;
use qt_telemetry::counters::{self, Counter};

#[global_allocator]
static ALLOC: qt_bench::alloc::CountingAllocator = qt_bench::alloc::CountingAllocator;

/// The two tests share the process-wide counters: one at a time.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn check_warm_solves(bs: usize, sequential: bool) {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let blocks = 6usize;
    let (a, sig) = qt_bench::sparse_rgf_problem(blocks, bs, 0.05, 7);
    // CSRMM routes every coupling block through the CSR kernels, so the
    // pooled sparse scratch (from_dense_pooled / recycle) is what this
    // test exercises.
    let body = || {
        qt_telemetry::set_enabled(true);
        qt_telemetry::reset_all();
        let solve = || {
            let out = rgf::rgf_with(&a, &sig, MultiplyStrategy::Csrmm).expect("rgf");
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
        let cold_fresh = counters::total(Counter::WsFresh);
        let cold_bytes = counters::total(Counter::AllocBytes);
        assert!(cold_fresh > 0, "cold solve must populate the arenas");
        assert!(
            cold_bytes > 0,
            "this binary installs the counting allocator"
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
    };
    if sequential {
        par::sequential(body)
    } else {
        body()
    }
}

#[test]
fn warm_sparse_selected_solves_are_allocation_free_on_the_hot_path() {
    check_warm_solves(32, true);
}

#[test]
fn warm_band_split_sparse_selected_solves_are_allocation_free() {
    check_warm_solves(64, false);
}
