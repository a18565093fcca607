//! Global floating-point-operation accounting.
//!
//! The paper counts flop with `nvprof` on the GPU (§4.3); our substitute
//! is a process-wide counter that every kernel in this crate feeds. Since
//! the telemetry PR the backing store is `qt_telemetry::counters` — the
//! same per-thread shards the phase spans read — so kernel accounting,
//! phase attribution and the Table 3 model-vs-measured comparison all see
//! one number. This module keeps the historical `qt_linalg::flops` API as
//! a thin façade over that registry.
//!
//! Convention: one complex multiply = 6 real flop, one complex add = 2 real
//! flop, so a complex fused multiply-accumulate costs 8 — the same convention
//! the paper's `64·N·...·Norb^3` byte/flop formulas use (8 flop × 8 bytes).

use qt_telemetry::counters::{self, Counter};

/// Add `n` real floating point operations to the global counter.
#[inline]
pub fn add_flops(n: u64) {
    counters::add(Counter::Flops, n);
}

/// Record the cost of a complex GEMM of shape `m x k x n`
/// (8 real flop per complex multiply-accumulate).
#[inline]
pub fn add_gemm_flops(m: usize, k: usize, n: usize) {
    add_gemm_flops_batched(m, k, n, 1);
}

/// Record the cost of `batch` complex GEMMs of shape `m x k x n` — the one
/// accounting helper every GEMM variant routes through, so the Table 3
/// model-vs-measured comparison can't drift between kernels.
#[inline]
pub fn add_gemm_flops_batched(m: usize, k: usize, n: usize, batch: usize) {
    add_flops(8 * (m * k * n * batch) as u64);
}

/// Current global flop count (summed across all threads).
pub fn flop_count() -> u64 {
    counters::total(Counter::Flops)
}

/// Measure the flop executed by `f`, without disturbing the global counter
/// semantics for concurrent readers (the counter keeps increasing; we report
/// the delta).
pub fn count_flops<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = flop_count();
    let out = f();
    (out, flop_count() - before)
}

/// [`count_flops`] for this crate's lib tests: the delta of the calling
/// thread's shard, which concurrently running sibling tests cannot move.
#[cfg(test)]
pub(crate) fn count_flops_here<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = counters::local(Counter::Flops);
    let out = f();
    (out, counters::local(Counter::Flops) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_flops_formula() {
        let (_, d) = count_flops_here(|| add_gemm_flops(2, 3, 4));
        assert_eq!(d, 8 * 2 * 3 * 4);
    }

    #[test]
    fn batched_gemm_flops_formula() {
        let (_, d) = count_flops_here(|| add_gemm_flops_batched(2, 3, 4, 7));
        assert_eq!(d, 8 * 2 * 3 * 4 * 7);
    }

    #[test]
    fn count_is_monotone_delta() {
        add_flops(10);
        let (_, d) = count_flops_here(|| add_flops(32));
        assert_eq!(d, 32);
    }

    #[test]
    fn facade_and_telemetry_agree() {
        let before = flop_count();
        let (_, d) = count_flops_here(|| add_gemm_flops_batched(3, 4, 5, 2));
        assert_eq!(d, 8 * 3 * 4 * 5 * 2);
        // The façade reads the telemetry registry's counter: this
        // thread's flops are part of the process total.
        assert!(flop_count() >= before + d);
    }
}
