//! Complex GEMM kernels — the blocked, packed, register-tiled hot path.
//!
//! Every flop of the simulator funnels through this module (the paper's
//! central claim is that after the data-centric transformations both RGF and
//! the SSE kernels are *GEMM-bound*, §4.2/Fig. 11c), so the kernel is built
//! as a BLIS-style hierarchy instead of a naive triple loop:
//!
//! * an outer **macro-kernel** tiles `(MC, KC, NC)` so the packed A-panel
//!   stays L2-resident and the packed B-panel streams from L3;
//! * operand panels are **packed** into contiguous buffers with the real and
//!   imaginary lanes split per k-slice, so the register kernel vectorizes as
//!   plain f64 FMAs (no interleaved-complex shuffles). Packing buffers come
//!   from a thread-local pool and are reused across calls;
//! * the inner **microkernel** holds an `MR x NR` block of C in registers
//!   (split re/im accumulators) and performs a rank-1 update per k-slice;
//! * thread parallelism ([`crate::par`]) runs over MR-aligned row bands of C,
//!   with the packed B-panel shared read-only between threads. A C element's
//!   k-summation happens inside one microkernel call whatever band it falls
//!   in, so the banding never shows in the output bits.
//!
//! Packing is also where operand *layout adapters* live, so the specialized
//! entry points cost nothing extra:
//!
//! * [`gemm_bdagger_acc`] packs `B^H` during the packing step (conjugate
//!   transpose is free — a strided read it would have paid anyway);
//! * [`gemm_window_acc`] packs the `ω`-window of consecutive `no x no`
//!   blocks as the horizontally-concatenated `no x win·no` operand of the
//!   paper's single fused GEMM (Fig. 11c), replacing a loop of tiny products;
//! * [`batched_gemm_acc`] runs same-shape batch items through the packed
//!   path in per-thread chunks so the pooled buffers amortize across items.
//!
//! The pre-existing i-k-j kernels are kept verbatim as `gemm_naive_*`
//! reference implementations: they anchor the proptest correctness suite,
//! the `gemm_sweep` benchmark baseline, and serve as the fallback below the
//! calibrated [`NAIVE_THRESHOLD`].

use crate::complex::{c64, Complex64};
use crate::dense::Matrix;
use crate::flops;
use crate::par;

/// Rows of C held in registers by the microkernel. With `NR = 4` the tile is
/// 16 complex accumulators = 32 f64 — exactly the 16 × 256-bit register file
/// of AVX2, the widest baseline we target without feature detection.
pub const MR: usize = 4;
/// Columns of C held in registers by the microkernel.
pub const NR: usize = 4;
/// Rows of the packed A-panel (`MC x KC` complex = 256 KiB, L2-resident).
pub const MC: usize = 64;
/// Depth of one packing pass.
pub const KC: usize = 256;
/// Columns of the packed B-panel (`KC x NC` complex = 4 MiB, L3-resident).
pub const NC: usize = 1024;

/// Below this many complex multiply-adds the product stays single-threaded.
/// The same number is the level rule of the layers above (DESIGN.md
/// "Parallelism"): a GF phase whose block products stay below it fans its
/// grid points out over [`crate::par`]; at or above it the points run in
/// sequence and these products band-split instead, so only one point's RGF
/// working set is live at a time.
pub const PAR_THRESHOLD: usize = 64 * 64 * 64;

/// Below this many complex multiply-adds (or when a dimension cannot fill a
/// register tile) the naive kernel wins: packing costs `O(mk + kn)` writes
/// that only amortize once the `O(mkn)` compute dominates. Calibrated on the
/// 8×8×8 crossover measured by the `gemm_sweep` bench.
const NAIVE_THRESHOLD: usize = 8 * 8 * 8;

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// `out = a @ b` (out must be zero- or garbage-initialized; it is overwritten).
pub fn gemm(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    out.fill_zero();
    gemm_acc(a, b, out);
}

/// `out += a @ b`.
pub fn gemm_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "inner dimension mismatch");
    assert_eq!(out.shape(), (m, n), "output shape mismatch");
    gemm_raw_acc(m, k, n, a.as_slice(), b.as_slice(), out.as_mut_slice());
}

/// Slice-level `out[m x n] += a[m x k] @ b[k x n]`, all row-major.
pub fn gemm_raw_acc(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    flops::add_gemm_flops_batched(m, k, n, 1);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let work = m * k * n;
    if work < NAIVE_THRESHOLD || m < MR || n < NR {
        gemm_naive_acc(m, k, n, a, b, out);
    } else {
        gemm_blocked::<true>(
            m,
            k,
            n,
            PanelA::Rows { a, ld: k },
            PanelB::Rows { b, ld: n },
            out,
            Complex64::ONE,
            work >= PAR_THRESHOLD,
        );
    }
}

/// `out += scale · (a @ b)`, slice-level and row-major like
/// [`gemm_raw_acc`]. The scale rides the blocked kernel's existing
/// accumulate-with-scale epilogue (the same mechanism
/// [`gemm_window_acc`] uses), so `C −= A·B` chains in RGF cost one GEMM
/// instead of a product, a temporary and a subtraction.
pub fn gemm_scaled_acc(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
    scale: Complex64,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    flops::add_gemm_flops_batched(m, k, n, 1);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let work = m * k * n;
    if work < NAIVE_THRESHOLD || m < MR || n < NR {
        gemm_naive_scaled_acc(m, k, n, a, b, out, scale);
    } else {
        gemm_blocked::<true>(
            m,
            k,
            n,
            PanelA::Rows { a, ld: k },
            PanelB::Rows { b, ld: n },
            out,
            scale,
            work >= PAR_THRESHOLD,
        );
    }
}

/// `out += scale · (a @ b^H)` with `b` stored row-major as `n x k` — the
/// scaled sibling of [`gemm_bdagger_acc`] for RGF's `−X·G^dagger` terms.
pub fn gemm_bdagger_scaled_acc(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
    scale: Complex64,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    flops::add_gemm_flops_batched(m, k, n, 1);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let work = m * k * n;
    if work < NAIVE_THRESHOLD || m < MR || n < NR {
        gemm_naive_bdagger_scaled_acc(m, k, n, a, b, out, scale);
    } else {
        gemm_blocked::<true>(
            m,
            k,
            n,
            PanelA::Rows { a, ld: k },
            PanelB::Dagger { b, ld: k },
            out,
            scale,
            work >= PAR_THRESHOLD,
        );
    }
}

/// `out += a @ b` through the blocked/packed path unconditionally — the
/// entry the proptest suite and the `gemm_sweep` bench use so the microkernel
/// is exercised even at shapes the dispatcher would route to the naive
/// fallback.
pub fn gemm_blocked_acc(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    flops::add_gemm_flops_batched(m, k, n, 1);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    gemm_blocked::<true>(
        m,
        k,
        n,
        PanelA::Rows { a, ld: k },
        PanelB::Rows { b, ld: n },
        out,
        Complex64::ONE,
        m * k * n >= PAR_THRESHOLD,
    );
}

/// `out += a @ b` through the blocked/packed path with the telemetry
/// hot-section timers compiled out (`INSTRUMENT = false`) and no flop
/// accounting. This is the honest baseline for the telemetry-overhead
/// comparison: `gemm_blocked_acc` with telemetry *disabled* must stay
/// within noise of this monomorphization with telemetry *absent*.
pub fn gemm_blocked_acc_uninstrumented(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    gemm_blocked::<false>(
        m,
        k,
        n,
        PanelA::Rows { a, ld: k },
        PanelB::Rows { b, ld: n },
        out,
        Complex64::ONE,
        m * k * n >= PAR_THRESHOLD,
    );
}

/// `out[idx] += a[idx] @ b[idx]` for a batch of equally-shaped small
/// matrices packed contiguously (each `m x k`, `k x n`, `m x n`).
///
/// Batch items are grouped into per-thread chunks so the packed panels of
/// the blocked kernel amortize their pooled buffers across many tiny
/// `Norb x Norb` products — the untransformed-SSE hot loop.
pub fn batched_gemm_acc(
    m: usize,
    k: usize,
    n: usize,
    batch: usize,
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
) {
    assert_eq!(a.len(), batch * m * k);
    assert_eq!(b.len(), batch * k * n);
    assert_eq!(out.len(), batch * m * n);
    flops::add_gemm_flops_batched(m, k, n, batch);
    if batch == 0 || m == 0 || k == 0 || n == 0 {
        return;
    }
    let per = m * k * n;
    let use_blocked = m >= MR && n >= NR && per >= NAIVE_THRESHOLD;
    let item = |at: &[Complex64], bt: &[Complex64], ot: &mut [Complex64]| {
        if use_blocked {
            gemm_blocked::<true>(
                m,
                k,
                n,
                PanelA::Rows { a: at, ld: k },
                PanelB::Rows { b: bt, ld: n },
                ot,
                Complex64::ONE,
                false,
            );
        } else {
            gemm_naive_acc(m, k, n, at, bt, ot);
        }
    };
    if per * batch >= PAR_THRESHOLD && batch > 1 {
        // Chunks of consecutive items per task: each task reuses its
        // thread's pooled packing buffers across the whole chunk.
        let chunk = batch.div_ceil(par::width() * 4).max(1);
        par::for_each_chunk_mut(out, chunk * m * n, |ci, oc| {
            let t0 = ci * chunk;
            for (ti, ot) in oc.chunks_mut(m * n).enumerate() {
                let t = t0 + ti;
                item(
                    &a[t * m * k..(t + 1) * m * k],
                    &b[t * k * n..(t + 1) * k * n],
                    ot,
                );
            }
        });
    } else {
        for t in 0..batch {
            item(
                &a[t * m * k..(t + 1) * m * k],
                &b[t * k * n..(t + 1) * k * n],
                &mut out[t * m * n..(t + 1) * m * n],
            );
        }
    }
}

/// `out += scale · (a_view @ b)` where `a_view` is an `m x k` row-major view
/// with row stride `lda >= k` into a larger matrix, while `b` (`k x n`) and
/// `out` (`m x n`) are contiguous. Serial and uninstrumented — no flop
/// accounting, no hot-section timers — because it is the internal building
/// block of the blocked LU substitution, whose flops the LU entry points
/// already account in closed form (double-counting would break the exact
/// model residuals).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_view_a_scaled_acc_uninstrumented(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    lda: usize,
    b: &[Complex64],
    out: &mut [Complex64],
    scale: Complex64,
) {
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    gemm_view_abc_scaled_acc_uninstrumented(m, k, n, a, lda, b, n, out, n, scale);
}

/// `c += scale · (a_view @ b_view)` where all three operands are row-major
/// views with independent row strides into larger buffers. This is the
/// in-place trailing update of the blocked LU factorization
/// (`A22 −= L21 · U12` inside one packed-factor buffer), which needs a
/// strided C on top of [`gemm_view_a_scaled_acc_uninstrumented`]'s strided
/// A. Serial and uninstrumented for the same reason: LU accounts its flops
/// in closed form.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_view_abc_scaled_acc_uninstrumented(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    lda: usize,
    b: &[Complex64],
    ldb: usize,
    c: &mut [Complex64],
    ldc: usize,
    scale: Complex64,
) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    debug_assert!(lda >= k && a.len() >= (m - 1) * lda + k);
    debug_assert!(ldb >= n && b.len() >= (k - 1) * ldb + n);
    debug_assert!(ldc >= n && c.len() >= (m - 1) * ldc + n);
    if m * k * n < NAIVE_THRESHOLD || m < MR || n < NR {
        for i in 0..m {
            let a_row = &a[i * lda..i * lda + k];
            let c_row = &mut c[i * ldc..i * ldc + n];
            for (p, &a_ip) in a_row.iter().enumerate() {
                if a_ip == Complex64::ZERO {
                    continue;
                }
                let av = a_ip * scale;
                let b_row = &b[p * ldb..p * ldb + n];
                for (o, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                    *o = o.mul_add(av, bv);
                }
            }
        }
        return;
    }
    // The same macro/micro pipeline as `gemm_blocked`, with the C row
    // stride decoupled from the logical width.
    let mut jc = 0;
    while jc < n {
        let nc = (n - jc).min(NC);
        let nc_pad = nc.next_multiple_of(NR);
        let mut pc = 0;
        while pc < k {
            let kc = (k - pc).min(KC);
            let mut b_buf = pack_pool::take(nc_pad * kc * 2);
            pack_b(PanelB::Rows { b, ld: ldb }, pc, kc, jc, nc, &mut b_buf);
            let mut ic = 0;
            while ic < m {
                let mc = (m - ic).min(MC);
                process_band::<false>(
                    PanelA::Rows { a, ld: lda },
                    ic,
                    mc,
                    pc,
                    kc,
                    nc,
                    &b_buf,
                    &mut c[ic * ldc + jc..],
                    ldc,
                    scale,
                );
                ic += MC;
            }
            pack_pool::give(b_buf);
            pc += kc;
        }
        jc += NC;
    }
}

/// Batched GEMM with one *shared* right operand: `out[t] += a[t] @ b` for
/// `batch` stacked row-major `m x k` items against a single `k x n` B.
///
/// This is the schedule the SSE σ rescheduling lowers to: after flipping
/// the (energy, ω) loops, every energy in a window multiplies the *same*
/// `D(q, ω)` block, so the batch degenerates into one packed
/// `batch·m x k x n` product — the stacked A items are literally the
/// row-major left operand. One packing pass serves the whole batch
/// (cheaper than [`batched_gemm_acc`]'s per-item packing), and the flop
/// count is identical: `8·batch·m·k·n`.
pub fn batched_gemm_shared_b_acc(
    m: usize,
    k: usize,
    n: usize,
    batch: usize,
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
) {
    assert_eq!(a.len(), batch * m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(out.len(), batch * m * n);
    gemm_raw_acc(batch * m, k, n, a, b, out);
}

/// [`batched_gemm_shared_b_acc`] with the scale riding the accumulate
/// epilogue: `out[t] += scale · (a[t] @ b)` for every item of the batch.
#[allow(clippy::too_many_arguments)]
pub fn batched_gemm_shared_b_scaled_acc(
    m: usize,
    k: usize,
    n: usize,
    batch: usize,
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
    scale: Complex64,
) {
    assert_eq!(a.len(), batch * m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(out.len(), batch * m * n);
    gemm_scaled_acc(batch * m, k, n, a, b, out, scale);
}

/// `out += a @ b^H` (`out[m x n] += a[m x k] @ b^H`, with `b` stored
/// row-major as `n x k`). The conjugate transpose happens while packing the
/// B-panel, so it costs nothing beyond the strided reads packing performs
/// anyway — `B^H` is never materialized.
pub fn gemm_bdagger_acc(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    flops::add_gemm_flops_batched(m, k, n, 1);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let work = m * k * n;
    if work < NAIVE_THRESHOLD || m < MR || n < NR {
        gemm_naive_bdagger_acc(m, k, n, a, b, out);
    } else {
        gemm_blocked::<true>(
            m,
            k,
            n,
            PanelA::Rows { a, ld: k },
            PanelB::Dagger { b, ld: k },
            out,
            Complex64::ONE,
            work >= PAR_THRESHOLD,
        );
    }
}

/// Windowed batched product: `out += scale · Σ_w A_w @ B_w` over `win`
/// consecutive row-major `no x no` blocks of `a_blocks` / `b_blocks`.
///
/// This is the paper's Fig. 11c GEMM substitution executed literally: the
/// stacked B blocks *are* the row-major `win·no x no` right operand, and the
/// A blocks are packed as the horizontally-concatenated `no x win·no` left
/// operand ([`PanelA::BlockCat`]), so the whole ω-window collapses into one
/// `no x win·no x no` packed product instead of `win` tiny GEMMs.
pub fn gemm_window_acc(
    no: usize,
    win: usize,
    a_blocks: &[Complex64],
    b_blocks: &[Complex64],
    out: &mut [Complex64],
    scale: Complex64,
) {
    debug_assert_eq!(a_blocks.len(), win * no * no);
    debug_assert_eq!(b_blocks.len(), win * no * no);
    debug_assert_eq!(out.len(), no * no);
    flops::add_gemm_flops_batched(no, win * no, no, 1);
    if no == 0 || win == 0 {
        return;
    }
    let work = no * no * no * win;
    if work < NAIVE_THRESHOLD || no < MR {
        gemm_naive_window_acc(no, win, a_blocks, b_blocks, out, scale);
    } else {
        gemm_window_blocked_acc_inner(
            no,
            win,
            a_blocks,
            b_blocks,
            out,
            scale,
            work >= PAR_THRESHOLD,
        );
    }
}

/// [`gemm_window_acc`] through the blocked path unconditionally (testing /
/// benchmarking entry, like [`gemm_blocked_acc`]).
pub fn gemm_window_blocked_acc(
    no: usize,
    win: usize,
    a_blocks: &[Complex64],
    b_blocks: &[Complex64],
    out: &mut [Complex64],
    scale: Complex64,
) {
    debug_assert_eq!(a_blocks.len(), win * no * no);
    debug_assert_eq!(b_blocks.len(), win * no * no);
    debug_assert_eq!(out.len(), no * no);
    flops::add_gemm_flops_batched(no, win * no, no, 1);
    if no == 0 || win == 0 {
        return;
    }
    gemm_window_blocked_acc_inner(no, win, a_blocks, b_blocks, out, scale, false);
}

fn gemm_window_blocked_acc_inner(
    no: usize,
    win: usize,
    a_blocks: &[Complex64],
    b_blocks: &[Complex64],
    out: &mut [Complex64],
    scale: Complex64,
    parallel: bool,
) {
    gemm_blocked::<true>(
        no,
        win * no,
        no,
        PanelA::BlockCat { a: a_blocks, no },
        // Stacked row-major `no x no` blocks are exactly row-major
        // `win·no x no`.
        PanelB::Rows {
            b: b_blocks,
            ld: no,
        },
        out,
        scale,
        parallel,
    );
}

// ---------------------------------------------------------------------------
// Naive reference kernels (seed implementation, kept verbatim)
// ---------------------------------------------------------------------------

/// Naive serial `i-k-j` kernel: `out[m x n] += a[m x k] @ b[k x n]`.
/// Reference implementation for tests/benches and small-size fallback.
pub fn gemm_naive_acc(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == Complex64::ZERO {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &b_pj) in out_row.iter_mut().zip(b_row.iter()) {
                *o = o.mul_add(a_ip, b_pj);
            }
        }
    }
}

/// Naive serial `out += a @ b^H` with `b` stored row-major as `n x k`.
pub fn gemm_naive_bdagger_acc(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = Complex64::ZERO;
            for (&x, &y) in a_row.iter().zip(b_row.iter()) {
                acc = acc.mul_add(x, y.conj());
            }
            out[i * n + j] += acc;
        }
    }
}

/// Naive serial reference for [`gemm_scaled_acc`]: per-entry dot product
/// accumulated unscaled, then folded into `out` with the scale — the same
/// epilogue order as the blocked kernel.
pub fn gemm_naive_scaled_acc(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
    scale: Complex64,
) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let mut acc = Complex64::ZERO;
            for (p, &a_ip) in a_row.iter().enumerate() {
                acc = acc.mul_add(a_ip, b[p * n + j]);
            }
            out[i * n + j] += acc * scale;
        }
    }
}

/// Naive serial reference for [`gemm_bdagger_scaled_acc`].
pub fn gemm_naive_bdagger_scaled_acc(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
    scale: Complex64,
) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = Complex64::ZERO;
            for (&x, &y) in a_row.iter().zip(b_row.iter()) {
                acc = acc.mul_add(x, y.conj());
            }
            out[i * n + j] += acc * scale;
        }
    }
}

/// Naive serial loop-of-products reference for [`batched_gemm_acc`].
pub fn gemm_naive_batched_acc(
    m: usize,
    k: usize,
    n: usize,
    batch: usize,
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
) {
    for t in 0..batch {
        gemm_naive_acc(
            m,
            k,
            n,
            &a[t * m * k..(t + 1) * m * k],
            &b[t * k * n..(t + 1) * k * n],
            &mut out[t * m * n..(t + 1) * m * n],
        );
    }
}

/// Naive reference for [`gemm_window_acc`]: a loop of `win` small products
/// accumulated and scaled at the end.
pub fn gemm_naive_window_acc(
    no: usize,
    win: usize,
    a_blocks: &[Complex64],
    b_blocks: &[Complex64],
    out: &mut [Complex64],
    scale: Complex64,
) {
    let nn = no * no;
    let mut acc = pack_pool::take_c(nn);
    acc[..nn].fill(Complex64::ZERO);
    for w in 0..win {
        gemm_naive_acc(
            no,
            no,
            no,
            &a_blocks[w * nn..(w + 1) * nn],
            &b_blocks[w * nn..(w + 1) * nn],
            &mut acc[..nn],
        );
    }
    for (o, v) in out.iter_mut().zip(acc[..nn].iter()) {
        *o += *v * scale;
    }
    pack_pool::give_c(acc);
}

// ---------------------------------------------------------------------------
// Packing: operand layout adapters
// ---------------------------------------------------------------------------

/// Left-operand layouts the packing step can read from.
#[derive(Clone, Copy)]
enum PanelA<'a> {
    /// Row-major `m x k` with row stride `ld`.
    Rows { a: &'a [Complex64], ld: usize },
    /// `win` consecutive row-major `no x no` blocks viewed as the horizontal
    /// concatenation `[A_0 | A_1 | … ]` of shape `no x win·no` — the fused
    /// ω-window operand of Fig. 11c.
    BlockCat { a: &'a [Complex64], no: usize },
}

impl PanelA<'_> {
    #[inline(always)]
    fn get(self, i: usize, p: usize) -> Complex64 {
        match self {
            PanelA::Rows { a, ld } => a[i * ld + p],
            PanelA::BlockCat { a, no } => a[(p / no) * no * no + i * no + (p % no)],
        }
    }
}

/// Right-operand layouts the packing step can read from.
#[derive(Clone, Copy)]
enum PanelB<'a> {
    /// Row-major `k x n` with row stride `ld`.
    Rows { b: &'a [Complex64], ld: usize },
    /// `b` stored row-major `n x k`; the panel is `b^H` (conjugation happens
    /// here, during packing — never materialized).
    Dagger { b: &'a [Complex64], ld: usize },
}

impl PanelB<'_> {
    #[inline(always)]
    fn get(self, p: usize, j: usize) -> Complex64 {
        match self {
            PanelB::Rows { b, ld } => b[p * ld + j],
            PanelB::Dagger { b, ld } => b[j * ld + p].conj(),
        }
    }
}

/// Pack `mc x kc` rows of A (from row `ic`, depth `pc`) into MR-row
/// micro-panels with split re/im lanes per k-slice; rows beyond `mc` are
/// zero-padded so the microkernel never needs edge cases.
fn pack_a(src: PanelA<'_>, ic: usize, mc: usize, pc: usize, kc: usize, buf: &mut [f64]) {
    let mut off = 0;
    let mut ir = 0;
    while ir < mc {
        let mr = (mc - ir).min(MR);
        for p in 0..kc {
            for i in 0..MR {
                let z = if i < mr {
                    src.get(ic + ir + i, pc + p)
                } else {
                    Complex64::ZERO
                };
                buf[off + i] = z.re;
                buf[off + MR + i] = z.im;
            }
            off += 2 * MR;
        }
        ir += MR;
    }
}

/// Pack `kc x nc` columns of B (from depth `pc`, column `jc`) into NR-column
/// micro-panels with split re/im lanes per k-slice, zero-padded to NR.
fn pack_b(src: PanelB<'_>, pc: usize, kc: usize, jc: usize, nc: usize, buf: &mut [f64]) {
    let mut off = 0;
    let mut jr = 0;
    while jr < nc {
        let nr = (nc - jr).min(NR);
        for p in 0..kc {
            for j in 0..NR {
                let z = if j < nr {
                    src.get(pc + p, jc + jr + j)
                } else {
                    Complex64::ZERO
                };
                buf[off + j] = z.re;
                buf[off + NR + j] = z.im;
            }
            off += 2 * NR;
        }
        jr += NR;
    }
}

/// Thread-local pool of packing buffers: `take`/`give` instead of a held
/// borrow, so a GEMM nested inside another's checkout window can't double-borrow.
mod pack_pool {
    use crate::complex::Complex64;
    use std::cell::RefCell;

    thread_local! {
        static POOL_F: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
        static POOL_C: RefCell<Vec<Vec<Complex64>>> = const { RefCell::new(Vec::new()) };
    }

    pub fn take(len: usize) -> Vec<f64> {
        let mut buf = POOL_F.with(|p| p.borrow_mut().pop()).unwrap_or_default();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        buf
    }

    pub fn give(buf: Vec<f64>) {
        POOL_F.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < 8 {
                p.push(buf);
            }
        });
    }

    pub fn take_c(len: usize) -> Vec<Complex64> {
        let mut buf = POOL_C.with(|p| p.borrow_mut().pop()).unwrap_or_default();
        if buf.len() < len {
            buf.resize(len, Complex64::ZERO);
        }
        buf
    }

    pub fn give_c(buf: Vec<Complex64>) {
        POOL_C.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < 8 {
                p.push(buf);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Macro-kernel and microkernel
// ---------------------------------------------------------------------------

/// Time `f` under the given telemetry hot section when `INSTRUMENT` holds;
/// call it directly otherwise. The `INSTRUMENT = false` instantiation is the
/// uninstrumented twin the telemetry-overhead comparison runs against.
#[inline(always)]
fn maybe_timed<const INSTRUMENT: bool, R>(
    section: qt_telemetry::counters::HotSection,
    f: impl FnOnce() -> R,
) -> R {
    if INSTRUMENT {
        qt_telemetry::counters::timed(section, f)
    } else {
        f()
    }
}

/// Blocked driver: `out[m x n] += scale · A @ B` with A/B read through their
/// packing adapters. `parallel` distributes MR-aligned row bands of C over
/// [`par`]; the packed B-panel is shared read-only.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked<const INSTRUMENT: bool>(
    m: usize,
    k: usize,
    n: usize,
    a: PanelA<'_>,
    b: PanelB<'_>,
    out: &mut [Complex64],
    scale: Complex64,
    parallel: bool,
) {
    // Band height: enough bands to feed every thread, MR-aligned, at most MC
    // so the packed A-panel stays L2-resident.
    let band_rows = if parallel {
        m.div_ceil(par::width()).next_multiple_of(MR).clamp(MR, MC)
    } else {
        m
    };
    let mut jc = 0;
    while jc < n {
        let nc = (n - jc).min(NC);
        let nc_pad = nc.next_multiple_of(NR);
        let mut pc = 0;
        while pc < k {
            let kc = (k - pc).min(KC);
            let mut b_buf = pack_pool::take(nc_pad * kc * 2);
            maybe_timed::<INSTRUMENT, _>(qt_telemetry::counters::HotSection::GemmPack, || {
                pack_b(b, pc, kc, jc, nc, &mut b_buf)
            });
            let b_pack: &[f64] = &b_buf;
            if parallel && m > band_rows {
                par::for_each_chunk_mut(out, band_rows * n, |t, band| {
                    let ic = t * band_rows;
                    let mc = band.len() / n;
                    process_band::<INSTRUMENT>(
                        a,
                        ic,
                        mc,
                        pc,
                        kc,
                        nc,
                        b_pack,
                        &mut band[jc..],
                        n,
                        scale,
                    );
                });
            } else {
                let mut ic = 0;
                while ic < m {
                    let mc = (m - ic).min(MC);
                    process_band::<INSTRUMENT>(
                        a,
                        ic,
                        mc,
                        pc,
                        kc,
                        nc,
                        b_pack,
                        &mut out[ic * n + jc..],
                        n,
                        scale,
                    );
                    ic += MC;
                }
            }
            pack_pool::give(b_buf);
            pc += kc;
        }
        jc += NC;
    }
}

/// Pack one A row band and sweep the microkernel over its `(ir, jr)` tiles.
/// `c` starts at the band's `(0, jc)` entry with row stride `ldc`.
#[allow(clippy::too_many_arguments)]
fn process_band<const INSTRUMENT: bool>(
    a: PanelA<'_>,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    nc: usize,
    b_pack: &[f64],
    c: &mut [Complex64],
    ldc: usize,
    scale: Complex64,
) {
    use qt_telemetry::counters::HotSection;
    let mc_pad = mc.next_multiple_of(MR);
    let mut a_buf = pack_pool::take(mc_pad * kc * 2);
    maybe_timed::<INSTRUMENT, _>(HotSection::GemmPack, || {
        pack_a(a, ic, mc, pc, kc, &mut a_buf)
    });
    maybe_timed::<INSTRUMENT, _>(HotSection::GemmKernel, || {
        macro_tile(mc, kc, nc, &a_buf, b_pack, c, ldc, scale)
    });
    pack_pool::give(a_buf);
}

/// Sweep the register microkernel over an `mc x nc` block of C using fully
/// packed panels. Edge tiles compute the full padded tile and store only the
/// `mr x nr` live corner.
#[allow(clippy::too_many_arguments)]
fn macro_tile(
    mc: usize,
    kc: usize,
    nc: usize,
    a_pack: &[f64],
    b_pack: &[f64],
    c: &mut [Complex64],
    ldc: usize,
    scale: Complex64,
) {
    let panel_a = kc * 2 * MR;
    let panel_b = kc * 2 * NR;
    let plain = scale == Complex64::ONE;
    let use_fma = fma_available();
    let mut jr = 0;
    while jr < nc {
        let nr = (nc - jr).min(NR);
        let bp = &b_pack[(jr / NR) * panel_b..(jr / NR + 1) * panel_b];
        let mut ir = 0;
        while ir < mc {
            let mr = (mc - ir).min(MR);
            let ap = &a_pack[(ir / MR) * panel_a..(ir / MR + 1) * panel_a];
            let mut cre = [[0.0f64; NR]; MR];
            let mut cim = [[0.0f64; NR]; MR];
            microkernel(use_fma, kc, ap, bp, &mut cre, &mut cim);
            for i in 0..mr {
                let base = (ir + i) * ldc + jr;
                let row = &mut c[base..base + nr];
                if plain {
                    for (j, o) in row.iter_mut().enumerate() {
                        o.re += cre[i][j];
                        o.im += cim[i][j];
                    }
                } else {
                    for (j, o) in row.iter_mut().enumerate() {
                        *o += c64(cre[i][j], cim[i][j]) * scale;
                    }
                }
            }
            ir += MR;
        }
        jr += NR;
    }
}

/// True when the host supports the AVX2+FMA instantiation of the
/// microkernel (one cached relaxed atomic load per query).
#[inline]
fn fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Dispatch to the widest microkernel instantiation the host supports. The
/// default x86-64 target only assumes SSE2, so the AVX2+FMA variant is
/// selected at runtime rather than compile time.
#[inline(always)]
fn microkernel(
    use_fma: bool,
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    cre: &mut [[f64; NR]; MR],
    cim: &mut [[f64; NR]; MR],
) {
    #[cfg(target_arch = "x86_64")]
    if use_fma {
        // SAFETY: `use_fma` is only true when AVX2 and FMA were detected.
        unsafe { microkernel_avx2(kc, ap, bp, cre, cim) };
        return;
    }
    let _ = use_fma;
    microkernel_body(kc, ap, bp, cre, cim);
}

/// AVX2+FMA instantiation: identical body, compiled with the features
/// enabled so the autovectorizer emits 256-bit broadcast-FMA sequences.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    cre: &mut [[f64; NR]; MR],
    cim: &mut [[f64; NR]; MR],
) {
    microkernel_body(kc, ap, bp, cre, cim);
}

/// Register-blocked rank-1-update kernel over split re/im packed panels:
/// `C[MR x NR] += A_panel @ B_panel`. The split lanes make every multiply a
/// plain f64 FMA, so the autovectorizer emits broadcast-FMA over the NR lane
/// without complex-interleave shuffles.
#[inline(always)]
fn microkernel_body(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    cre: &mut [[f64; NR]; MR],
    cim: &mut [[f64; NR]; MR],
) {
    debug_assert!(ap.len() >= kc * 2 * MR);
    debug_assert!(bp.len() >= kc * 2 * NR);
    for p in 0..kc {
        let a = &ap[p * 2 * MR..(p + 1) * 2 * MR];
        let b = &bp[p * 2 * NR..(p + 1) * 2 * NR];
        let ar: &[f64; MR] = a[..MR].try_into().unwrap();
        let ai: &[f64; MR] = a[MR..].try_into().unwrap();
        let br: &[f64; NR] = b[..NR].try_into().unwrap();
        let bi: &[f64; NR] = b[NR..].try_into().unwrap();
        for i in 0..MR {
            for j in 0..NR {
                cre[i][j] += ar[i] * br[j] - ai[i] * bi[j];
                cim[i][j] += ar[i] * bi[j] + ai[i] * br[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    fn randv(len: usize, r: &mut impl rand::Rng) -> Vec<Complex64> {
        (0..len)
            .map(|_| c64(r.random_range(-1.0..1.0), r.random_range(-1.0..1.0)))
            .collect()
    }

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k) = a.shape();
        let n = b.cols();
        Matrix::from_fn(m, n, |i, j| (0..k).map(|p| a[(i, p)] * b[(p, j)]).sum())
    }

    #[test]
    fn gemm_matches_naive() {
        let mut r = rng();
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (7, 5, 6), (16, 16, 16), (33, 17, 9)] {
            let a = Matrix::random(m, k, &mut r);
            let b = Matrix::random(k, n, &mut r);
            let mut out = Matrix::zeros(m, n);
            gemm(&a, &b, &mut out);
            assert!(out.max_abs_diff(&naive(&a, &b)) < 1e-12, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn gemm_parallel_path_matches() {
        let mut r = rng();
        let a = Matrix::random(80, 70, &mut r);
        let b = Matrix::random(70, 90, &mut r);
        let mut out = Matrix::zeros(80, 90);
        gemm(&a, &b, &mut out);
        assert!(out.max_abs_diff(&naive(&a, &b)) < 1e-10);
    }

    #[test]
    fn blocked_path_matches_at_tile_edges() {
        // Shapes straddling MR/NR/MC/KC boundaries, forced through the
        // blocked path regardless of the dispatcher's thresholds.
        let mut r = rng();
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 9, 2),
            (4, 4, 4),
            (5, 5, 5),
            (MR, KC + 3, NR),
            (MC + 1, 7, NR + 1),
            (2 * MR + 3, 19, 3 * NR + 2),
        ] {
            let a = Matrix::random(m, k, &mut r);
            let b = Matrix::random(k, n, &mut r);
            let mut out = Matrix::random(m, n, &mut r);
            let mut want = out.clone();
            gemm_blocked_acc(m, k, n, a.as_slice(), b.as_slice(), out.as_mut_slice());
            gemm_naive_acc(m, k, n, a.as_slice(), b.as_slice(), want.as_mut_slice());
            assert!(out.max_abs_diff(&want) < 1e-11, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn gemm_acc_accumulates() {
        let mut r = rng();
        let a = Matrix::random(4, 4, &mut r);
        let b = Matrix::random(4, 4, &mut r);
        let mut out = Matrix::identity(4);
        gemm_acc(&a, &b, &mut out);
        let expect = &Matrix::identity(4) + &naive(&a, &b);
        assert!(out.max_abs_diff(&expect) < 1e-13);
    }

    #[test]
    fn scaled_acc_matches_scale_of_product() {
        let mut r = rng();
        for &(m, k, n) in &[(2, 3, 4), (5, 5, 5), (12, 9, 11), (24, 16, 20)] {
            let a = Matrix::random(m, k, &mut r);
            let b = Matrix::random(k, n, &mut r);
            let scale = c64(-1.5, 0.25);
            let mut out = Matrix::random(m, n, &mut r);
            let expect = &out + &naive(&a, &b).scale(scale);
            gemm_scaled_acc(
                m,
                k,
                n,
                a.as_slice(),
                b.as_slice(),
                out.as_mut_slice(),
                scale,
            );
            assert!(out.max_abs_diff(&expect) < 1e-12, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn bdagger_scaled_acc_matches_explicit() {
        let mut r = rng();
        for &(m, k, n) in &[(3, 4, 2), (6, 6, 6), (13, 8, 10)] {
            let a = Matrix::random(m, k, &mut r);
            let b = Matrix::random(n, k, &mut r);
            let scale = c64(0.0, -1.0);
            let mut out = Matrix::random(m, n, &mut r);
            let expect = &out + &a.matmul(&b.dagger()).scale(scale);
            gemm_bdagger_scaled_acc(
                m,
                k,
                n,
                a.as_slice(),
                b.as_slice(),
                out.as_mut_slice(),
                scale,
            );
            assert!(out.max_abs_diff(&expect) < 1e-12, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn shared_b_batch_matches_loop_of_gemms() {
        let mut r = rng();
        let (m, k, n, batch) = (2, 3, 3, 7);
        let a = randv(batch * m * k, &mut r);
        let bm = Matrix::random(k, n, &mut r);
        let mut out = vec![Complex64::ZERO; batch * m * n];
        let f0 = flops::flop_count();
        batched_gemm_shared_b_acc(m, k, n, batch, &a, bm.as_slice(), &mut out);
        assert_eq!(
            flops::flop_count() - f0,
            (8 * batch * m * k * n) as u64,
            "shared-B batch must count exactly the per-item flops"
        );
        for t in 0..batch {
            let am = Matrix::from_vec(m, k, a[t * m * k..(t + 1) * m * k].to_vec());
            let expect = naive(&am, &bm);
            let got = Matrix::from_vec(m, n, out[t * m * n..(t + 1) * m * n].to_vec());
            assert!(got.max_abs_diff(&expect) < 1e-13, "item {t}");
        }
    }

    #[test]
    fn batched_matches_loop_of_gemms() {
        let mut r = rng();
        let (m, k, n, batch) = (3, 4, 2, 5);
        let a = randv(batch * m * k, &mut r);
        let b = randv(batch * k * n, &mut r);
        let mut out = vec![Complex64::ZERO; batch * m * n];
        batched_gemm_acc(m, k, n, batch, &a, &b, &mut out);
        for t in 0..batch {
            let am = Matrix::from_vec(m, k, a[t * m * k..(t + 1) * m * k].to_vec());
            let bm = Matrix::from_vec(k, n, b[t * k * n..(t + 1) * k * n].to_vec());
            let expect = naive(&am, &bm);
            let got = Matrix::from_vec(m, n, out[t * m * n..(t + 1) * m * n].to_vec());
            assert!(got.max_abs_diff(&expect) < 1e-12);
        }
    }

    #[test]
    fn batched_blocked_path_matches_reference() {
        // 12x12x12 items are above NAIVE_THRESHOLD, and 64 of them exceed
        // PAR_THRESHOLD, so this exercises the chunked packed path.
        let mut r = rng();
        let (m, k, n, batch) = (12, 12, 12, 64);
        let a = randv(batch * m * k, &mut r);
        let b = randv(batch * k * n, &mut r);
        let mut out = vec![Complex64::ZERO; batch * m * n];
        let mut want = out.clone();
        batched_gemm_acc(m, k, n, batch, &a, &b, &mut out);
        gemm_naive_batched_acc(m, k, n, batch, &a, &b, &mut want);
        let diff = out
            .iter()
            .zip(&want)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-11, "max diff {diff}");
    }

    #[test]
    fn bdagger_matches_explicit_dagger() {
        let mut r = rng();
        let a = Matrix::random(3, 5, &mut r);
        let b = Matrix::random(4, 5, &mut r); // b^H is 5x4
        let mut out = vec![Complex64::ZERO; 3 * 4];
        gemm_bdagger_acc(3, 5, 4, a.as_slice(), b.as_slice(), &mut out);
        let expect = a.matmul(&b.dagger());
        let got = Matrix::from_vec(3, 4, out);
        assert!(got.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn bdagger_blocked_and_parallel_paths_match() {
        let mut r = rng();
        for (m, k, n) in [(24, 18, 20), (80, 70, 90)] {
            let a = Matrix::random(m, k, &mut r);
            let b = Matrix::random(n, k, &mut r);
            let mut out = vec![Complex64::ZERO; m * n];
            gemm_bdagger_acc(m, k, n, a.as_slice(), b.as_slice(), &mut out);
            let expect = a.matmul(&b.dagger());
            let got = Matrix::from_vec(m, n, out);
            assert!(got.max_abs_diff(&expect) < 1e-10, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn window_matches_loop_of_products() {
        let mut r = rng();
        for (no, win) in [(2, 3), (4, 1), (4, 7), (8, 5)] {
            let nn = no * no;
            let a = randv(win * nn, &mut r);
            let b = randv(win * nn, &mut r);
            let scale = c64(0.3, -0.7);
            let mut got = randv(nn, &mut r);
            let mut want = got.clone();
            gemm_window_acc(no, win, &a, &b, &mut got, scale);
            gemm_naive_window_acc(no, win, &a, &b, &mut want, scale);
            let diff = got
                .iter()
                .zip(&want)
                .map(|(x, y)| (*x - *y).abs())
                .fold(0.0, f64::max);
            assert!(diff < 1e-11, "no={no} win={win} diff={diff}");
            // Also force the blocked path at shapes the dispatcher may not.
            let mut blocked = want.clone();
            let mut want2 = want.clone();
            gemm_window_blocked_acc(no, win, &a, &b, &mut blocked, scale);
            gemm_naive_window_acc(no, win, &a, &b, &mut want2, scale);
            let diff2 = blocked
                .iter()
                .zip(&want2)
                .map(|(x, y)| (*x - *y).abs())
                .fold(0.0, f64::max);
            assert!(diff2 < 1e-11, "blocked no={no} win={win} diff={diff2}");
        }
    }

    #[test]
    fn flop_accounting() {
        let (_, d) = crate::flops::count_flops_here(|| {
            let a = Matrix::zeros(2, 3);
            let b = Matrix::zeros(3, 4);
            let mut out = Matrix::zeros(2, 4);
            gemm(&a, &b, &mut out);
        });
        assert_eq!(d, 8 * 2 * 3 * 4);
    }

    #[test]
    fn flop_accounting_is_uniform_across_variants() {
        let mut r = rng();
        let (m, k, n, batch) = (4, 5, 6, 3);
        let a = randv(batch * m * k, &mut r);
        let b = randv(batch * k * n, &mut r);
        let per = 8 * (m * k * n) as u64;
        let (_, d) = crate::flops::count_flops_here(|| {
            let mut out = vec![Complex64::ZERO; batch * m * n];
            batched_gemm_acc(m, k, n, batch, &a, &b, &mut out);
        });
        assert_eq!(d, per * batch as u64);
        let bd = randv(n * k, &mut r);
        let (_, d) = crate::flops::count_flops_here(|| {
            let mut out = vec![Complex64::ZERO; m * n];
            gemm_bdagger_acc(m, k, n, &a[..m * k], &bd, &mut out);
        });
        assert_eq!(d, per);
        let (no, win) = (4, 3);
        let wa = randv(win * no * no, &mut r);
        let wb = randv(win * no * no, &mut r);
        let (_, d) = crate::flops::count_flops_here(|| {
            let mut out = vec![Complex64::ZERO; no * no];
            gemm_window_acc(no, win, &wa, &wb, &mut out, Complex64::ONE);
        });
        assert_eq!(d, 8 * (no * (win * no) * no) as u64);
    }
}
