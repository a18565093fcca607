//! Per-thread workspace arenas for the allocation-free hot path.
//!
//! Every (E, kz) point of the Green's-function phases used to allocate its
//! RGF temporaries, self-energy blocks and SSE scratch from the global
//! allocator — the paper's §4 redundancy-removal argument applied to the
//! *allocator* instead of the dataflow graph: the same buffers are
//! requested with the same shapes thousands of times per SCF iteration.
//! This module keeps a thread-local pool of raw `Complex64` buffers (plus
//! a small index-buffer pool for LU pivots). A `take` is served from the
//! pool when any buffer with sufficient capacity is free and falls back to
//! a fresh heap allocation otherwise; fresh fallbacks are counted in the
//! `ws_fresh` telemetry counter, so the allocation-regression test can
//! assert that warm SCF iterations (after the pools have grown to the peak
//! working set) perform zero hot-path allocations.
//!
//! Discipline: buffers must be returned (`give*`) on the **same thread**
//! that took them. [`crate::par`] task bodies satisfy this naturally — a
//! task runs start-to-finish on one thread — while data that escapes the
//! task (gathered spectral tensors, SSE partial sums) must stay on the
//! regular heap. `par`'s helper threads are persistent, so their arenas
//! warm up once and stay warm across phases and iterations. Each call
//! acquires and releases the thread-local `RefCell` immediately, so a
//! kernel nested inside a checkout window cannot observe a held borrow.

use crate::complex::Complex64;
use crate::dense::Matrix;
use qt_telemetry::counters::{self, Counter};
use std::cell::RefCell;

/// Shape-agnostic pool of complex buffers; the thread-local instance
/// behind [`take`]/[`give`]. Public for tests and for callers that want an
/// isolated pool.
#[derive(Default)]
pub struct Workspace {
    /// Free complex buffers, sorted by capacity (ascending) for best-fit
    /// checkout.
    bufs: Vec<Vec<Complex64>>,
    /// Free index buffers (LU pivots), sorted by capacity.
    idx_bufs: Vec<Vec<usize>>,
    /// Fresh heap allocations this pool had to perform (pool misses).
    fresh: u64,
}

impl Workspace {
    /// Check out a zeroed buffer of exactly `len` entries.
    pub fn take_scratch(&mut self, len: usize) -> Vec<Complex64> {
        let pos = self.bufs.partition_point(|b| b.capacity() < len);
        if pos < self.bufs.len() {
            let mut b = self.bufs.remove(pos);
            b.clear();
            b.resize(len, Complex64::ZERO);
            b
        } else {
            self.fresh += 1;
            counters::add(Counter::WsFresh, 1);
            vec![Complex64::ZERO; len]
        }
    }

    /// Check out a buffer of exactly `len` entries with **unspecified
    /// contents** (whatever the previous user left behind). For callers
    /// that fully overwrite the buffer before reading it — `copy_from`
    /// targets, overwrite-product outputs — this skips the `take_scratch`
    /// zero-fill, which is pure memory traffic on the RGF hot path.
    pub fn take_scratch_uninit(&mut self, len: usize) -> Vec<Complex64> {
        let pos = self.bufs.partition_point(|b| b.capacity() < len);
        if pos < self.bufs.len() {
            let mut b = self.bufs.remove(pos);
            // Only the tail beyond the previous length is filled (or the
            // excess truncated); retained entries keep their stale values
            // by design.
            b.resize(len, Complex64::ZERO);
            b
        } else {
            self.fresh += 1;
            counters::add(Counter::WsFresh, 1);
            vec![Complex64::ZERO; len]
        }
    }

    /// Check out a `rows x cols` matrix with unspecified contents (see
    /// [`Workspace::take_scratch_uninit`]).
    pub fn take_uninit(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.take_scratch_uninit(rows * cols))
    }

    /// Check out an **empty** buffer with capacity for at least `cap`
    /// entries — for push-style fills (CSR assembly) where any `resize`
    /// fill, zeroed or not, is wasted work.
    pub fn take_scratch_empty(&mut self, cap: usize) -> Vec<Complex64> {
        let pos = self.bufs.partition_point(|b| b.capacity() < cap);
        if pos < self.bufs.len() {
            let mut b = self.bufs.remove(pos);
            b.clear();
            b
        } else {
            self.fresh += 1;
            counters::add(Counter::WsFresh, 1);
            Vec::with_capacity(cap)
        }
    }

    /// Empty index-buffer counterpart of
    /// [`Workspace::take_scratch_empty`].
    pub fn take_idx_empty(&mut self, cap: usize) -> Vec<usize> {
        let pos = self.idx_bufs.partition_point(|b| b.capacity() < cap);
        if pos < self.idx_bufs.len() {
            let mut b = self.idx_bufs.remove(pos);
            b.clear();
            b
        } else {
            self.fresh += 1;
            counters::add(Counter::WsFresh, 1);
            Vec::with_capacity(cap)
        }
    }

    /// Return a buffer to the pool.
    pub fn give_scratch(&mut self, buf: Vec<Complex64>) {
        if buf.capacity() == 0 {
            return;
        }
        let pos = self.bufs.partition_point(|b| b.capacity() < buf.capacity());
        self.bufs.insert(pos, buf);
    }

    /// Check out a zeroed `rows x cols` matrix backed by a pooled buffer.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.take_scratch(rows * cols))
    }

    /// Return a matrix's backing buffer to the pool.
    pub fn give(&mut self, m: Matrix) {
        self.give_scratch(m.into_vec());
    }

    /// Check out a zeroed index buffer of exactly `len` entries.
    pub fn take_idx(&mut self, len: usize) -> Vec<usize> {
        let pos = self.idx_bufs.partition_point(|b| b.capacity() < len);
        if pos < self.idx_bufs.len() {
            let mut b = self.idx_bufs.remove(pos);
            b.clear();
            b.resize(len, 0);
            b
        } else {
            self.fresh += 1;
            counters::add(Counter::WsFresh, 1);
            vec![0; len]
        }
    }

    /// Return an index buffer to the pool.
    pub fn give_idx(&mut self, buf: Vec<usize>) {
        if buf.capacity() == 0 {
            return;
        }
        let pos = self
            .idx_bufs
            .partition_point(|b| b.capacity() < buf.capacity());
        self.idx_bufs.insert(pos, buf);
    }

    /// Number of pool misses (fresh heap allocations) so far.
    pub fn fresh_count(&self) -> u64 {
        self.fresh
    }

    /// Number of buffers currently parked in the pool.
    pub fn pooled(&self) -> usize {
        self.bufs.len() + self.idx_bufs.len()
    }
}

thread_local! {
    static POOL: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// Check out a zeroed `rows x cols` matrix from the calling thread's pool.
#[inline]
pub fn take(rows: usize, cols: usize) -> Matrix {
    POOL.with(|p| p.borrow_mut().take(rows, cols))
}

/// Return a matrix taken with [`take`] to the calling thread's pool.
#[inline]
pub fn give(m: Matrix) {
    POOL.with(|p| p.borrow_mut().give(m));
}

/// Check out a zeroed complex buffer from the calling thread's pool.
#[inline]
pub fn take_scratch(len: usize) -> Vec<Complex64> {
    POOL.with(|p| p.borrow_mut().take_scratch(len))
}

/// Check out a `rows x cols` matrix with **unspecified contents** from the
/// calling thread's pool — for buffers that are fully overwritten before
/// being read (`copy_from` targets, overwrite-product outputs).
#[inline]
pub fn take_uninit(rows: usize, cols: usize) -> Matrix {
    POOL.with(|p| p.borrow_mut().take_uninit(rows, cols))
}

/// Return a buffer taken with [`take_scratch`].
#[inline]
pub fn give_scratch(buf: Vec<Complex64>) {
    POOL.with(|p| p.borrow_mut().give_scratch(buf));
}

/// Check out an empty complex buffer with capacity `cap` from the calling
/// thread's pool (see [`Workspace::take_scratch_empty`]).
#[inline]
pub fn take_scratch_empty(cap: usize) -> Vec<Complex64> {
    POOL.with(|p| p.borrow_mut().take_scratch_empty(cap))
}

/// Check out an empty index buffer with capacity `cap` from the calling
/// thread's pool (see [`Workspace::take_idx_empty`]).
#[inline]
pub fn take_idx_empty(cap: usize) -> Vec<usize> {
    POOL.with(|p| p.borrow_mut().take_idx_empty(cap))
}

/// Check out a zeroed index buffer from the calling thread's pool.
#[inline]
pub fn take_idx(len: usize) -> Vec<usize> {
    POOL.with(|p| p.borrow_mut().take_idx(len))
}

/// Return an index buffer taken with [`take_idx`].
#[inline]
pub fn give_idx(buf: Vec<usize>) {
    POOL.with(|p| p.borrow_mut().give_idx(buf));
}

/// Count a pool miss on the calling thread — for storage pooled outside
/// this module (recycled CSR images) that had to allocate.
pub(crate) fn count_fresh() {
    POOL.with(|p| p.borrow_mut().fresh += 1);
    counters::add(Counter::WsFresh, 1);
}

/// Pool-miss count of the **calling thread's** pool — unlike the global
/// `ws_fresh` telemetry counter this is immune to concurrent tests, so
/// warm-path regression tests can assert exact reuse.
#[inline]
pub fn fresh_here() -> u64 {
    POOL.with(|p| p.borrow().fresh_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn take_give_reuses_buffers() {
        let mut ws = Workspace::default();
        let m = ws.take(4, 6);
        assert_eq!(m.shape(), (4, 6));
        assert_eq!(ws.fresh_count(), 1);
        ws.give(m);
        // Same capacity, different shape: still served from the pool.
        let m2 = ws.take(6, 4);
        assert_eq!(ws.fresh_count(), 1);
        assert!(m2.as_slice().iter().all(|z| *z == Complex64::ZERO));
        ws.give(m2);
        // Larger request: pool miss.
        let m3 = ws.take(8, 8);
        assert_eq!(ws.fresh_count(), 2);
        ws.give(m3);
        assert_eq!(ws.pooled(), 2);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::default();
        let small = ws.take_scratch(16);
        let big = ws.take_scratch(64);
        ws.give_scratch(big);
        ws.give_scratch(small);
        // A request for 10 must take the 16-buffer, leaving the 64 free.
        let b = ws.take_scratch(10);
        assert!(b.capacity() >= 10 && b.capacity() < 64);
        assert_eq!(ws.fresh_count(), 2);
        let b2 = ws.take_scratch(50);
        assert!(b2.capacity() >= 64);
        assert_eq!(ws.fresh_count(), 2);
    }

    #[test]
    fn taken_buffers_are_zeroed_after_reuse() {
        let mut ws = Workspace::default();
        let mut m = ws.take(3, 3);
        m[(1, 1)] = c64(4.0, -2.0);
        ws.give(m);
        let m2 = ws.take(3, 3);
        assert!(m2.as_slice().iter().all(|z| *z == Complex64::ZERO));
        ws.give(m2);
    }

    #[test]
    fn take_uninit_reuses_without_zeroing() {
        let mut ws = Workspace::default();
        let mut m = ws.take(3, 3);
        m[(2, 2)] = c64(9.0, 1.0);
        ws.give(m);
        // Uninit checkout may observe the stale value — and must not have
        // paid for a zero-fill to hide it.
        let m2 = ws.take_uninit(3, 3);
        assert_eq!(ws.fresh_count(), 1, "served from the pool");
        assert_eq!(m2.shape(), (3, 3));
        ws.give(m2);
        // The zeroing checkout still scrubs the same buffer.
        let m3 = ws.take(3, 3);
        assert!(m3.as_slice().iter().all(|z| *z == Complex64::ZERO));
        ws.give(m3);
    }

    #[test]
    fn take_empty_has_capacity_and_zero_len() {
        let mut ws = Workspace::default();
        let mut b = ws.take_scratch(100);
        b[7] = c64(1.0, 2.0);
        ws.give_scratch(b);
        let mut p = ws.take_idx(50);
        p[3] = 9;
        ws.give_idx(p);
        // Both served from the pool: empty, with enough capacity, and with
        // no fill of any kind performed.
        let b2 = ws.take_scratch_empty(80);
        assert!(b2.is_empty() && b2.capacity() >= 80);
        let p2 = ws.take_idx_empty(40);
        assert!(p2.is_empty() && p2.capacity() >= 40);
        assert_eq!(ws.fresh_count(), 2);
        ws.give_scratch(b2);
        ws.give_idx(p2);
        // Pool miss still counts as a fresh allocation.
        let big = ws.take_scratch_empty(4096);
        assert!(big.is_empty() && big.capacity() >= 4096);
        assert_eq!(ws.fresh_count(), 3);
        ws.give_scratch(big);
    }

    #[test]
    fn idx_pool_roundtrip() {
        let mut ws = Workspace::default();
        let mut p = ws.take_idx(5);
        p[3] = 7;
        ws.give_idx(p);
        let p2 = ws.take_idx(4);
        assert_eq!(ws.fresh_count(), 1);
        assert!(p2.iter().all(|&i| i == 0));
        ws.give_idx(p2);
    }

    #[test]
    fn thread_local_pool_roundtrip() {
        let before = fresh_here();
        let m = take(5, 5);
        give(m);
        let m = take(5, 5);
        give(m);
        // Second take reuses the first buffer: at most one miss from here.
        assert!(fresh_here() - before <= 1);
    }
}
