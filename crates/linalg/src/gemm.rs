//! Complex GEMM kernels — one dispatcher over the blocked, packed,
//! register-tiled hot path, the small-block shared-B kernel and their naive
//! fallbacks.
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
//!   plain f64 multiplies and adds (no interleaved-complex shuffles). Packing
//!   buffers come from a thread-local pool and are reused across calls;
//! * the inner **microkernel** holds an `MR x NR` block of C in registers
//!   (split re/im accumulators) and performs a rank-1 update per k-slice;
//! * thread parallelism ([`crate::par`]) runs over MR-aligned row bands of C,
//!   with the packed B-panel shared read-only between threads. A C element's
//!   k-summation happens inside one microkernel call whatever band it falls
//!   in, so the banding never shows in the output bits.
//!
//! Every entry point is a thin call into one private dispatcher, naming its
//! operand layout (`B` row-major or `B^H`, row strides), its scale and its
//! naive fallback; the dispatcher is the only code that compares a shape
//! against `NAIVE_THRESHOLD`, [`MR`]/[`NR`] and [`PAR_THRESHOLD`]. The two
//! fallbacks sum in different orders — i-k-j row axpys ([`gemm_naive_acc`])
//! for the unscaled products, a per-entry dot then scale for the scaled
//! ones — so the fallback an entry names is part of its output bits;
//! `tests/gemm_blocked.rs` pins every entry's route bit for bit.
//!
//! The SSE kernels' products are shared-B batches of tiny `Norb x Norb`
//! items. For square items of at most 8 (every orbital count) the dispatcher
//! routes them, by item shape alone, to SBSMM — a const-generic small-block
//! shared-B kernel that holds B for the whole batch, packs nothing, and sums
//! in the entry's naive order. A shared-B batch therefore has the same bits
//! at every batch length. On an AVX2 host an even `N` runs on interleaved
//! complex lanes: a row of C stays `[re, im, …]` in registers from load to
//! store, and B is held twice, as its rows and as their sign-folded swaps
//! `[−im, re, …]`, so each `Complex64::mul_add` step is two multiplies and
//! two adds, `(c + x.re·b) + x.im·b̃`, with `mul_add`'s bits (`x·(−y)` is
//! `−(x·y)` and `a + (−b)` is `a − b` exactly). An odd `N`, and any host
//! without AVX2, runs the split re/im body. No route fuses a multiply and an
//! add: every bit rests on separately rounded products and sums.
//!
//! The Π kernel's trace reduction lives here too. [`StagedRuns`] stages a
//! pair's `U`/`V` runs once into split re/im planes, energy innermost, from
//! the packing pool; [`trace_windows_acc`] then reads any `(qz, ω, kz)`
//! window of them at an offset, each plane at the run's length as stride,
//! and sums every energy's trace in its own vector lane in one-trace-at-a-
//! time order.
//!
//! Layouts are adapted in the packing step: [`gemm_bdagger_acc`]
//! conjugate-transposes B while packing it (`B^H` is never materialized),
//! the blocked LU's in-place updates pass A, B and C row strides wider
//! than the product, and the `_over` entries ([`gemm_acc_over`] and its
//! scaled and `B^H` twins) pack only a list of depth indices — RGF's
//! products against a coupling leg's output, which is zero outside the
//! coupling's support — with the full product's route, slices and bits.
//! [`gemm_acc_gathered`] goes one step further for the boundary decimation:
//! its operands are compact copies of the rows, depth and columns a product
//! needs, run with the route, slices and bits of the product they came
//! from.
//! [`route`] exposes the routing rule to kernels outside this module: the
//! CSR products sum in the order of the dense entry they stand in for.

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
/// register tile) an entry's naive fallback wins: packing costs `O(mk + kn)`
/// writes that only amortize once the `O(mkn)` compute dominates. The 8³
/// crossover was measured when the packed kernel landed; `reproduce
/// calibrate` prints the blocked and naive rates of each shape class.
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

/// Slice-level `out[m x n] += a[m x k] @ b[k x n]`, all row-major; small
/// shapes take the i-k-j [`gemm_naive_acc`].
pub fn gemm_raw_acc(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
) {
    let b = PanelB::Rows { b, ld: n };
    dispatch::<true>(
        (m, k, n),
        Batch::Items(1),
        a,
        k,
        b,
        out,
        n,
        Complex64::ONE,
        Some(Naive::Axpy),
        true,
        Depth::All,
    );
}

/// `out += scale · (a @ b)`, slice-level and row-major like
/// [`gemm_raw_acc`]. The scale rides the blocked kernel's
/// accumulate-with-scale epilogue, so `C −= A·B` chains in RGF cost one GEMM
/// instead of a product, a temporary and a subtraction. Small shapes take
/// the dot-then-scale fallback, whose summation order differs from
/// [`gemm_raw_acc`]'s even at `scale = ONE`.
pub fn gemm_scaled_acc(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
    scale: Complex64,
) {
    let b = PanelB::Rows { b, ld: n };
    dispatch::<true>(
        (m, k, n),
        Batch::Items(1),
        a,
        k,
        b,
        out,
        n,
        scale,
        Some(Naive::Dot),
        true,
        Depth::All,
    );
}

/// `out += scale · (a @ b^H)` with `b` stored row-major as `n x k` (RGF's
/// `X·G^dagger` terms). The conjugate transpose happens while packing the
/// B-panel, so it costs nothing beyond the strided reads packing performs
/// anyway — `B^H` is never materialized. Small shapes take the
/// dot-then-scale fallback.
pub fn gemm_bdagger_acc(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
    scale: Complex64,
) {
    let b = PanelB::Dagger { b, ld: k };
    dispatch::<true>(
        (m, k, n),
        Batch::Items(1),
        a,
        k,
        b,
        out,
        n,
        scale,
        Some(Naive::Dot),
        true,
        Depth::All,
    );
}

/// [`gemm_acc`] summed only over the depth indices `ks` (ascending): the
/// columns of `a` (rows of `b`) outside `ks` must be zero. Routed and
/// `KC`-sliced by the full shape, so on finite operands the bits are
/// [`gemm_acc`]'s — a skipped term is an exact `±0` added to an
/// accumulator that is never `−0`. The packed route packs only `ks` and
/// counts `8·m·|ks|·n` flops; a product small enough for the naive route
/// sums (and counts) the full depth.
pub fn gemm_acc_over(ks: &[usize], a: &Matrix, b: &Matrix, out: &mut Matrix) {
    over(ks, a, b, false, out, Complex64::ONE, Naive::Axpy);
}

/// [`gemm_scaled_acc`] summed only over `ks`, with [`gemm_acc_over`]'s
/// contract.
pub fn gemm_scaled_acc_over(
    ks: &[usize],
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    scale: Complex64,
) {
    over(ks, a, b, false, out, scale, Naive::Dot);
}

/// [`gemm_bdagger_acc`] (`out += scale · a @ b^H`, `b` stored `n x k`)
/// summed only over `ks`, with [`gemm_acc_over`]'s contract.
pub fn gemm_bdagger_acc_over(
    ks: &[usize],
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    scale: Complex64,
) {
    over(ks, a, b, true, out, scale, Naive::Dot);
}

/// [`gemm_acc`] on operands gathered out of a `full` = `(m, k, n)` product:
/// `a` holds some rows of the full A at its columns `ks` (ascending full
/// depth indices), `b` the rows `ks` of the full B at some of its columns,
/// and `out` the matching entries of the full output. Routed and split by
/// the full shape and `KC`-sliced by full depth index, each slice packing
/// the part of `ks` it holds. So when the full A is zero outside the
/// columns `ks`, each entry has the full [`gemm_acc`]'s bits on finite
/// operands, by [`gemm_acc_over`]'s argument; when instead the full B is
/// zero outside the rows `ks`, the same holds for an `out` free of `-0`
/// (the naive route adds the dropped `±0` terms to it). Counts
/// `8·rows(a)·|ks|·cols(b)` flops.
pub fn gemm_acc_gathered(
    full: (usize, usize, usize),
    ks: &[usize],
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
) {
    let (m, k) = a.shape();
    let (bk, n) = b.shape();
    assert!(k == ks.len() && bk == k, "depth must match the index list");
    assert_eq!(out.shape(), (m, n), "output shape mismatch");
    assert!(
        m <= full.0 && n <= full.2,
        "gathered from a smaller product"
    );
    assert!(
        ks.windows(2).all(|w| w[0] < w[1]) && ks.last().is_none_or(|&p| p < full.1),
        "depth indices must ascend inside 0..k"
    );
    dispatch::<true>(
        (m, k, n),
        Batch::Items(1),
        a.as_slice(),
        k,
        PanelB::Rows {
            b: b.as_slice(),
            ld: n,
        },
        out.as_mut_slice(),
        n,
        Complex64::ONE,
        Some(Naive::Axpy),
        true,
        Depth::Gathered { full, ks },
    );
}

/// The `_over` entries: `out += scale · a @ op(b)` over the depth list
/// `ks`, `op(b)` = `b^H` when `dagger`.
fn over(
    ks: &[usize],
    a: &Matrix,
    b: &Matrix,
    dagger: bool,
    out: &mut Matrix,
    scale: Complex64,
    naive: Naive,
) {
    let (m, k) = a.shape();
    let (bk, n) = if dagger {
        (b.cols(), b.rows())
    } else {
        b.shape()
    };
    assert_eq!(k, bk, "inner dimension mismatch");
    assert_eq!(out.shape(), (m, n), "output shape mismatch");
    assert!(
        ks.windows(2).all(|w| w[0] < w[1]) && ks.last().is_none_or(|&p| p < k),
        "depth indices must ascend inside 0..k"
    );
    let b = if dagger {
        PanelB::Dagger {
            b: b.as_slice(),
            ld: k,
        }
    } else {
        PanelB::Rows {
            b: b.as_slice(),
            ld: n,
        }
    };
    let (a, c) = (a.as_slice(), out.as_mut_slice());
    // A full list is `0..k` itself, and the naive kernels sum the full
    // depth: only the packed route reads the list.
    let depth = if ks.len() == k || goes_naive(m, k, n) {
        Depth::All
    } else {
        Depth::Only(ks)
    };
    let batch = Batch::Items(1);
    dispatch::<true>(
        (m, k, n),
        batch,
        a,
        k,
        b,
        c,
        n,
        scale,
        Some(naive),
        true,
        depth,
    );
}

/// `out += a @ b` through the blocked/packed path unconditionally — the
/// entry the proptest suite and `qt_model::calibrate` use so the microkernel
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
    let b = PanelB::Rows { b, ld: n };
    dispatch::<true>(
        (m, k, n),
        Batch::Items(1),
        a,
        k,
        b,
        out,
        n,
        Complex64::ONE,
        None,
        true,
        Depth::All,
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
    let b = PanelB::Rows { b, ld: n };
    dispatch::<false>(
        (m, k, n),
        Batch::Items(1),
        a,
        k,
        b,
        out,
        n,
        Complex64::ONE,
        None,
        true,
        Depth::All,
    );
}

/// `out[idx] += a[idx] @ b[idx]` for a batch of equally-shaped small
/// matrices packed contiguously (each `m x k`, `k x n`, `m x n`).
///
/// Each item is routed like [`gemm_raw_acc`] but runs serially; a large
/// batch fans out over per-thread chunks of items instead, so the packed
/// panels of the blocked kernel amortize their pooled buffers across many
/// tiny `Norb x Norb` products — the untransformed-SSE hot loop.
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
    let b = PanelB::Rows { b, ld: n };
    dispatch::<true>(
        (m, k, n),
        Batch::Items(batch),
        a,
        k,
        b,
        out,
        n,
        Complex64::ONE,
        Some(Naive::Axpy),
        true,
        Depth::All,
    );
}

/// `c += scale · (a_view @ b_view)` where all three operands are row-major
/// views with independent row strides into larger buffers: the blocked LU's
/// trailing update (`A22 −= L21 · U12` inside one packed-factor buffer) and
/// its substitution sweeps. Serial and uninstrumented — no flop accounting,
/// no hot-section timers — because LU accounts its flops in closed form
/// (double-counting would break the exact model residuals).
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
    let b = PanelB::Rows { b, ld: ldb };
    dispatch::<false>(
        (m, k, n),
        Batch::Items(1),
        a,
        lda,
        b,
        c,
        ldc,
        scale,
        Some(Naive::Axpy),
        false,
        Depth::All,
    );
}

/// Batched GEMM with one *shared* right operand: `out[t] += a[t] @ b` for
/// `batch` stacked row-major `m x k` items against a single `k x n` B.
///
/// This is the schedule the SSE σ rescheduling lowers to: after flipping
/// the (energy, ω) loops, every energy in a window multiplies the *same*
/// `D(q, ω)` block. Square items of at most 8 run SBSMM in the i-k-j order
/// of [`gemm_naive_acc`] at every batch length; any other batch is one
/// `batch·m x k x n` product (the stacked A items are literally the
/// row-major left operand), routed on that shape. The flop count is the
/// per-item one either way: `8·batch·m·k·n`.
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
    let b = PanelB::Rows { b, ld: n };
    dispatch::<true>(
        (m, k, n),
        Batch::Shared(batch),
        a,
        k,
        b,
        out,
        n,
        Complex64::ONE,
        Some(Naive::Axpy),
        true,
        Depth::All,
    );
}

/// [`batched_gemm_shared_b_acc`] with the scale riding the accumulate
/// epilogue: `out[t] += scale · (a[t] @ b)` for every item of the batch.
/// Square items of at most 8 run SBSMM in the dot-then-scale order of
/// [`gemm_scaled_acc`]'s fallback.
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
    let b = PanelB::Rows { b, ld: n };
    dispatch::<true>(
        (m, k, n),
        Batch::Shared(batch),
        a,
        k,
        b,
        out,
        n,
        scale,
        Some(Naive::Dot),
        true,
        Depth::All,
    );
}

/// Naive serial `i-k-j` kernel: `out[m x n] += a[m x k] @ b[k x n]` — the
/// small-shape fallback of the unscaled entries and the reference the
/// proptests and `qt_model::calibrate` hold the blocked kernel against.
pub fn gemm_naive_acc(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
) {
    let b = PanelB::Rows { b, ld: n };
    naive_axpy((m, k, n), a, k, b, out, n, Complex64::ONE);
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

// ---------------------------------------------------------------------------
// The dispatcher
// ---------------------------------------------------------------------------

/// The small-shape order an entry falls back to: `c += scale · a @ op(b)`,
/// A row-major at row stride `lda`, C at row stride `ldc`. The two sum in
/// different orders, so which one an entry names is part of its output
/// bits; SBSMM runs the named order too. The unscaled entries
/// ([`gemm_raw_acc`], [`gemm_acc`]) name `Axpy`; the scaled ones
/// ([`gemm_scaled_acc`], [`gemm_bdagger_acc`]) name `Dot`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Naive {
    /// Row axpys straight into C, zero `a[i,p]` skipped:
    /// `c[i,j] = c[i,j].mul_add(a[i,p]·scale, b[p,j])` over ascending `p`
    /// (the scale is skipped, not multiplied, when it is ONE).
    Axpy,
    /// A dot per entry from zero, `acc = acc.mul_add(a[i,p], b[p,j])` over
    /// ascending `p`, then `c[i,j] += acc · scale`.
    Dot,
}

/// The kernel one product runs on, and with it the order its entries sum
/// in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Route {
    /// The entry's naive order.
    Naive(Naive),
    /// The packed kernel: per `KC`-deep slice of the depth, a fresh `+0`
    /// accumulator takes `acc = acc + a[i,p]·b[p,j]` (complex `Mul`, then
    /// `Add`) over ascending `p`, then flushes as `c += acc` at a scale of
    /// exactly ONE and as `c += acc · scale` otherwise.
    Blocked,
}

/// The route a single `m x k x n` product of an entry naming `naive` takes
/// — the one threshold rule of this module, which the dispatcher applies
/// and kernels outside it (the CSR products) follow to sum in the same
/// order as the dense entry they stand in for.
pub fn route((m, k, n): (usize, usize, usize), naive: Naive) -> Route {
    if goes_naive(m, k, n) {
        Route::Naive(naive)
    } else {
        Route::Blocked
    }
}

/// True when a product is too small for packing to pay off: below
/// `NAIVE_THRESHOLD` multiply-adds, or unable to fill a register tile.
fn goes_naive(m: usize, k: usize, n: usize) -> bool {
    m * k * n < NAIVE_THRESHOLD || m < MR || n < NR
}

/// The depth indices a product sums over.
#[derive(Clone, Copy)]
enum Depth<'a> {
    /// Every `p` in `0..k`.
    All,
    /// Only these, ascending; every other column of A (row of B) is zero.
    Only(&'a [usize]),
    /// The operands were gathered out of a `full`-shaped product: A holds
    /// its columns `ks` and B its rows `ks` (ascending full indices), so
    /// the operands' depth `0..k` is `ks` itself. Routed, split and sliced
    /// as the full product.
    Gathered {
        full: (usize, usize, usize),
        ks: &'a [usize],
    },
}

impl<'a> Depth<'a> {
    /// Number of depth indices of a `k`-deep product.
    fn len(self, k: usize) -> usize {
        match self {
            Depth::All | Depth::Gathered { .. } => k,
            Depth::Only(ks) => ks.len(),
        }
    }

    /// The shape a product of operand shape `shape` is routed, split and
    /// `KC`-sliced by.
    fn full(self, shape: (usize, usize, usize)) -> (usize, usize, usize) {
        match self {
            Depth::Gathered { full, .. } => full,
            Depth::All | Depth::Only(_) => shape,
        }
    }

    /// The part of `self` inside the slice `pc..pc + kc`, as the packing
    /// step reads it.
    fn window(self, pc: usize, kc: usize) -> Window<'a> {
        match self {
            Depth::All => Window::Range(pc, kc),
            Depth::Only(ks) => {
                let (lo, hi) = Self::cut(ks, pc, kc);
                Window::List(&ks[lo..hi])
            }
            // The gathered operands hold the slice's indices contiguously.
            Depth::Gathered { ks, .. } => {
                let (lo, hi) = Self::cut(ks, pc, kc);
                Window::Range(lo, hi - lo)
            }
        }
    }

    /// The positions in `ks` of the indices inside `pc..pc + kc`.
    fn cut(ks: &[usize], pc: usize, kc: usize) -> (usize, usize) {
        let lo = ks.partition_point(|&p| p < pc);
        (lo, lo + ks[lo..].partition_point(|&p| p < pc + kc))
    }
}

/// One `KC` slice of a [`Depth`], in the order the packing step reads it.
#[derive(Clone, Copy)]
enum Window<'a> {
    /// `start..start + len`.
    Range(usize, usize),
    List(&'a [usize]),
}

impl Window<'_> {
    fn len(self) -> usize {
        match self {
            Window::Range(_, len) => len,
            Window::List(ks) => ks.len(),
        }
    }
}

/// The products of one call.
#[derive(Clone, Copy)]
enum Batch {
    /// This many products with a B each. Items of a batch are contiguous
    /// (`lda = k`, `B` row-major `k x n`, `ldc = n`); a single product may
    /// carry any strides.
    Items(usize),
    /// This many contiguous items against one row-major B.
    Shared(usize),
}

/// `c += scale · a @ op(b)` for the products of `batch`, each of shape
/// `m x k x n`, with A row-major at row stride `lda` and C at row stride
/// `ldc` — the one routing rule of this module:
///
/// * a shared-B batch of square `N x N` items with `N ≤ 8` runs SBSMM in the
///   order of the entry's naive kernel, whatever the batch length; any other
///   shared-B batch is one `batch·m x k x n` product;
/// * a product below `NAIVE_THRESHOLD` multiply-adds, or with `m < MR` or
///   `n < NR`, runs the entry's `naive` kernel if it names one; every other
///   product runs the packed kernel;
/// * when `split` allows it and the call reaches [`PAR_THRESHOLD`]
///   multiply-adds, a single product band-splits its rows over [`par`] and
///   a batch fans its items out in chunks, each item serial.
///
/// A single packed product may sum over a `depth` list instead of `0..k`
/// (the `_over` entries); it is routed, sliced and split by its full shape.
/// A gathered product ([`gemm_acc_gathered`]) is routed, sliced and split
/// by the shape of the product it was gathered from.
///
/// `INSTRUMENT` adds the flop accounting and the hot-section timers.
/// Inlined into every entry point, so the named kernel is a direct call and
/// the entry stays as small as a call into it.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn dispatch<const INSTRUMENT: bool>(
    (m, k, n): (usize, usize, usize),
    batch: Batch,
    a: &[Complex64],
    lda: usize,
    b: PanelB<'_>,
    c: &mut [Complex64],
    ldc: usize,
    scale: Complex64,
    naive: Option<Naive>,
    split: bool,
    depth: Depth<'_>,
) {
    let (items, shared) = match batch {
        Batch::Items(t) => (t, false),
        Batch::Shared(t) => (t, true),
    };
    if INSTRUMENT {
        flops::add_gemm_flops_batched(m, depth.len(k), n, items);
    }
    // A gathered product with no depth left still flushes its `+0` sums
    // when the full product would.
    if items == 0 || m == 0 || depth.full((m, k, n)).1 == 0 || n == 0 {
        return;
    }
    if shared && m == k && k == n {
        if let (Some(order), PanelB::Rows { b, .. }, Some(kernel)) = (naive, b, sbsmm_for(n)) {
            let len = items * n * n;
            kernel(order, &a[..len], &b[..n * n], &mut c[..len], scale);
            return;
        }
    }
    let (m, batch) = if shared { (items * m, 1) } else { (m, items) };
    let (rm, rk, rn) = depth.full((m, k, n));
    debug_assert!(lda >= k && a.len() >= (batch * m - 1) * lda + k);
    debug_assert!(ldc >= n && c.len() >= (batch * m - 1) * ldc + n);
    let naive = naive.filter(|_| goes_naive(rm, rk, rn));
    let split = split && rm * rk * rn * batch >= PAR_THRESHOLD;
    if batch == 1 {
        debug_assert!(
            naive.is_none() || !matches!(depth, Depth::Only(_)),
            "the naive kernels sum the operands' whole depth"
        );
        let shape = (m, k, n);
        match naive {
            Some(Naive::Axpy) => naive_axpy(shape, a, lda, b, c, ldc, scale),
            Some(Naive::Dot) => naive_dot(shape, a, lda, b, c, ldc, scale),
            None => gemm_blocked::<INSTRUMENT>(shape, depth, a, lda, b, c, ldc, scale, split),
        }
        return;
    }
    debug_assert!(
        matches!(depth, Depth::All),
        "batches sum over the full depth"
    );
    let PanelB::Rows { b, .. } = b else {
        unreachable!("batch items are row-major")
    };
    let item = |t: usize, ct: &mut [Complex64]| {
        let at = &a[t * m * k..(t + 1) * m * k];
        let bt = PanelB::Rows {
            b: &b[t * k * n..(t + 1) * k * n],
            ld: n,
        };
        match naive {
            Some(Naive::Axpy) => naive_axpy((m, k, n), at, k, bt, ct, n, scale),
            Some(Naive::Dot) => naive_dot((m, k, n), at, k, bt, ct, n, scale),
            None => {
                gemm_blocked::<INSTRUMENT>((m, k, n), Depth::All, at, k, bt, ct, n, scale, false)
            }
        }
    };
    if split {
        // Chunks of consecutive items per task: each task reuses its
        // thread's pooled packing buffers across the whole chunk.
        let chunk = batch.div_ceil(par::width() * 4).max(1);
        par::for_each_chunk_mut(c, chunk * m * n, |ci, cc| {
            for (ti, ct) in cc.chunks_mut(m * n).enumerate() {
                item(ci * chunk + ti, ct);
            }
        });
    } else {
        for (t, ct) in c.chunks_mut(m * n).enumerate() {
            item(t, ct);
        }
    }
}

/// The seed i-k-j kernel ([`gemm_naive_acc`]'s order): row axpys straight
/// into C, zero `a[i,p]` skipped; row-major B only. A `scale` of exactly
/// ONE is skipped, not multiplied, so the unscaled entries never multiply.
fn naive_axpy(
    (m, k, n): (usize, usize, usize),
    a: &[Complex64],
    lda: usize,
    b: PanelB<'_>,
    c: &mut [Complex64],
    ldc: usize,
    scale: Complex64,
) {
    let PanelB::Rows { b, ld: ldb } = b else {
        unreachable!("no entry names the axpy kernel over B^H")
    };
    let plain = scale == Complex64::ONE;
    for i in 0..m {
        let a_row = &a[i * lda..i * lda + k];
        let c_row = &mut c[i * ldc..i * ldc + n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == Complex64::ZERO {
                continue;
            }
            let av = if plain { a_ip } else { a_ip * scale };
            for (o, &bv) in c_row.iter_mut().zip(&b[p * ldb..p * ldb + n]) {
                *o = o.mul_add(av, bv);
            }
        }
    }
}

/// A per-entry dot product from zero, folded in as `c += dot · scale`. The
/// scale is multiplied even when it is ONE: a dot summed from `+0` is never
/// `-0`, so on finite values `dot · ONE` is `dot` bit for bit. The layout is
/// matched once, outside the loops, so the k-loop reads B as a plain slice.
fn naive_dot(
    (m, k, n): (usize, usize, usize),
    a: &[Complex64],
    lda: usize,
    b: PanelB<'_>,
    c: &mut [Complex64],
    ldc: usize,
    scale: Complex64,
) {
    let rows = (0..m).map(|i| (&a[i * lda..i * lda + k], i * ldc));
    match b {
        PanelB::Rows { b, ld } => {
            for (a_row, ci) in rows {
                for (j, o) in c[ci..ci + n].iter_mut().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (p, &a_ip) in a_row.iter().enumerate() {
                        acc = acc.mul_add(a_ip, b[p * ld + j]);
                    }
                    *o += acc * scale;
                }
            }
        }
        PanelB::Dagger { b, ld } => {
            for (a_row, ci) in rows {
                for (j, o) in c[ci..ci + n].iter_mut().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (&x, &y) in a_row.iter().zip(&b[j * ld..j * ld + k]) {
                        acc = acc.mul_add(x, y.conj());
                    }
                    *o += acc * scale;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SBSMM: small-block shared-B products, and the trace reduction
// ---------------------------------------------------------------------------

/// An SBSMM instantiation: `(order, a, b, c, scale)` for contiguous `N x N`
/// items of `a`/`c` against one row-major `N x N` `b`.
type Sbsmm = fn(Naive, &[Complex64], &[Complex64], &mut [Complex64], Complex64);

/// The SBSMM instantiation for `n x n` items, for every orbital count a
/// device can have (`1..=8`); `None` above, where B outgrows the registers.
/// An even `n` runs on interleaved complex pairs ([`sbsmm_pairs`]), an odd
/// one on split re/im lanes ([`sbsmm_split`]).
fn sbsmm_for(n: usize) -> Option<Sbsmm> {
    let kernel: Sbsmm = match n {
        1 => sbsmm_split::<1>,
        2 => sbsmm_pairs::<2, 1>,
        3 => sbsmm_split::<3>,
        4 => sbsmm_pairs::<4, 2>,
        5 => sbsmm_split::<5>,
        6 => sbsmm_pairs::<6, 3>,
        7 => sbsmm_split::<7>,
        8 => sbsmm_pairs::<8, 4>,
        _ => return None,
    };
    Some(kernel)
}

/// `c[t] += scale · a[t] @ b` through [`sbsmm_body`], in its AVX2+FMA
/// instantiation when the host has one.
fn sbsmm_split<const N: usize>(
    order: Naive,
    a: &[Complex64],
    b: &[Complex64],
    c: &mut [Complex64],
    scale: Complex64,
) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: `fma_available` is only true when AVX2 and FMA were detected.
        unsafe { sbsmm_split_avx2::<N>(order, a, b, c, scale) };
        return;
    }
    sbsmm_body::<N>(order, a, b, c, scale);
}

/// AVX2+FMA instantiation of [`sbsmm_body`]: the same multiplies and adds,
/// four lanes wide (Rust never fuses a multiply and an add on its own, so
/// the bits are the portable ones).
///
/// # Safety
/// The host must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn sbsmm_split_avx2<const N: usize>(
    order: Naive,
    a: &[Complex64],
    b: &[Complex64],
    c: &mut [Complex64],
    scale: Complex64,
) {
    sbsmm_body::<N>(order, a, b, c, scale);
}

/// `c[t] += scale · a[t] @ b` for an even `N = 2·H`: [`sbsmm_pairs_avx2`]
/// when the host has AVX2 and FMA, [`sbsmm_body`] otherwise — the same bits.
fn sbsmm_pairs<const N: usize, const H: usize>(
    order: Naive,
    a: &[Complex64],
    b: &[Complex64],
    c: &mut [Complex64],
    scale: Complex64,
) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: `fma_available` is only true when AVX2 and FMA were detected.
        unsafe { sbsmm_pairs_avx2::<N, H>(order, a, b, c, scale) };
        return;
    }
    sbsmm_body::<N>(order, a, b, c, scale);
}

/// [`sbsmm_body`] on interleaved complex lanes, for an even `N = 2·H`. A row
/// of C is `H` vectors of two `[re, im]` pairs and stays interleaved from
/// load to store. B is held twice: its rows `b = [re, im, …]` and their
/// sign-folded swaps `b̃ = [−im, re, …]`, so a `Complex64::mul_add` step is
/// `c = (c + x.re·b) + x.im·b̃` — `mul_add`'s bits, since `x·(−y) = −(x·y)`
/// and `a + (−b) = a − b` hold exactly. The `Dot` epilogue
/// `addsub(acc·s.re, swap(acc)·s.im)` is `acc · s` with `Mul`'s bits (its
/// imaginary sum is commuted, which is exact). Plain multiplies and adds:
/// no fused multiply-add, which would round once where the portable body
/// rounds twice.
///
/// # Safety
/// The host must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn sbsmm_pairs_avx2<const N: usize, const H: usize>(
    order: Naive,
    a: &[Complex64],
    b: &[Complex64],
    c: &mut [Complex64],
    scale: Complex64,
) {
    use std::arch::x86_64::*;
    assert!(2 * H == N && b.len() >= N * N && a.len() == c.len());
    // The sign of lanes 0 and 2 (`_mm256_set_pd` lists lanes high to low).
    let neg_re = _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
    let swap = |v: __m256d| _mm256_permute_pd::<0b0101>(v);
    let mut bv = [[_mm256_setzero_pd(); H]; N];
    let mut bt = [[_mm256_setzero_pd(); H]; N];
    for p in 0..N {
        for h in 0..H {
            // SAFETY: `p·N + 2h + 1 < N·N ≤ b.len()`; `Complex64` is
            // `repr(C)` `{re, im}`, so two of them are four packed f64.
            let v = unsafe { _mm256_loadu_pd(b.as_ptr().add(p * N + 2 * h).cast()) };
            bv[p][h] = v;
            bt[p][h] = _mm256_xor_pd(swap(v), neg_re);
        }
    }
    let step = |acc: &mut [__m256d; H], x: Complex64, p: usize| {
        let (xr, xi) = (_mm256_set1_pd(x.re), _mm256_set1_pd(x.im));
        for h in 0..H {
            let t = _mm256_add_pd(acc[h], _mm256_mul_pd(xr, bv[p][h]));
            acc[h] = _mm256_add_pd(t, _mm256_mul_pd(xi, bt[p][h]));
        }
    };
    let rows = a.chunks_exact(N).zip(c.chunks_exact_mut(N));
    match order {
        Naive::Axpy => {
            let plain = scale == Complex64::ONE;
            for (a_row, c_row) in rows {
                let cp: *mut f64 = c_row.as_mut_ptr().cast();
                // SAFETY: `c_row` holds `N = 2H` complex = `4H` f64.
                let mut acc: [__m256d; H] =
                    std::array::from_fn(|h| unsafe { _mm256_loadu_pd(cp.add(4 * h)) });
                for (p, &x) in a_row.iter().enumerate() {
                    if x != Complex64::ZERO {
                        step(&mut acc, if plain { x } else { x * scale }, p);
                    }
                }
                for (h, v) in acc.into_iter().enumerate() {
                    // SAFETY: as for the load above.
                    unsafe { _mm256_storeu_pd(cp.add(4 * h), v) };
                }
            }
        }
        Naive::Dot => {
            let (sr, si) = (_mm256_set1_pd(scale.re), _mm256_set1_pd(scale.im));
            for (a_row, c_row) in rows {
                let mut acc = [_mm256_setzero_pd(); H];
                for (p, &x) in a_row.iter().enumerate() {
                    step(&mut acc, x, p);
                }
                let cp: *mut f64 = c_row.as_mut_ptr().cast();
                for (h, v) in acc.into_iter().enumerate() {
                    let prod = _mm256_addsub_pd(_mm256_mul_pd(v, sr), _mm256_mul_pd(swap(v), si));
                    // SAFETY: `c_row` holds `N = 2H` complex = `4H` f64.
                    unsafe {
                        let o = cp.add(4 * h);
                        _mm256_storeu_pd(o, _mm256_add_pd(_mm256_loadu_pd(o), prod));
                    }
                }
            }
        }
    }
}

/// The small-block shared-B kernel: B split into re/im lanes once and held
/// for the whole batch, then each row of A streamed into its row of C in
/// the naive order `order` names — `Axpy`: `c[j] = c[j].mul_add(x, b[p][j])`
/// over `p`, `x = a[p]·scale` and zero `a[p]` skipped; `Dot`: `c[j] += (Σ_p
/// a[p]·b[p][j]) · scale`, summed from zero. Each `mul_add` is spelled out
/// lane-wise in `Complex64::mul_add`'s operation order, so a row vectorizes
/// over its `N` columns and keeps the naive kernel's bits.
#[inline(always)]
fn sbsmm_body<const N: usize>(
    order: Naive,
    a: &[Complex64],
    b: &[Complex64],
    c: &mut [Complex64],
    scale: Complex64,
) {
    let br: [[f64; N]; N] = std::array::from_fn(|p| std::array::from_fn(|j| b[p * N + j].re));
    let bi: [[f64; N]; N] = std::array::from_fn(|p| std::array::from_fn(|j| b[p * N + j].im));
    let mul_add_row = |re: &mut [f64; N], im: &mut [f64; N], x: Complex64, p: usize| {
        for j in 0..N {
            re[j] = re[j] + x.re * br[p][j] - x.im * bi[p][j];
            im[j] = im[j] + x.re * bi[p][j] + x.im * br[p][j];
        }
    };
    let rows = a.chunks_exact(N).zip(c.chunks_exact_mut(N));
    match order {
        Naive::Axpy => {
            let plain = scale == Complex64::ONE;
            for (a_row, c_row) in rows {
                let mut re: [f64; N] = std::array::from_fn(|j| c_row[j].re);
                let mut im: [f64; N] = std::array::from_fn(|j| c_row[j].im);
                for (p, &x) in a_row.iter().enumerate() {
                    if x != Complex64::ZERO {
                        mul_add_row(&mut re, &mut im, if plain { x } else { x * scale }, p);
                    }
                }
                for (o, (&r, &i)) in c_row.iter_mut().zip(re.iter().zip(&im)) {
                    *o = c64(r, i);
                }
            }
        }
        Naive::Dot => {
            for (a_row, c_row) in rows {
                let (mut re, mut im) = ([0.0; N], [0.0; N]);
                for (p, &x) in a_row.iter().enumerate() {
                    mul_add_row(&mut re, &mut im, x, p);
                }
                for (o, (&r, &i)) in c_row.iter_mut().zip(re.iter().zip(&im)) {
                    *o += c64(r, i) * scale;
                }
            }
        }
    }
}

/// Runs of `n x n` blocks staged for the Π trace reduction: each run
/// (row-major `[e][n·n]`, all of one length) as split re/im planes
/// `[n·n][len]`, energy innermost, in a pooled packing buffer that returns
/// to the pool on drop. Staged once, the runs serve any number of
/// [`trace_windows_acc`] calls, each reading a window of energies at an
/// offset into every plane.
pub struct StagedRuns {
    n: usize,
    /// Blocks per run: the stride between two planes' energy lanes.
    len: usize,
    runs: usize,
    transposed: bool,
    buf: Vec<f64>,
}

impl StagedRuns {
    /// Stage `runs`; `transpose` puts block entry `(s, r)` at `(r, s)`.
    pub fn new<R: AsRef<[Complex64]>>(n: usize, runs: &[R], transpose: bool) -> Self {
        let nn = n * n;
        let len = runs.first().map_or(0, |r| r.as_ref().len() / nn.max(1));
        assert!(
            runs.iter().all(|r| r.as_ref().len() == len * nn),
            "every run holds the same number of n x n blocks"
        );
        let mut buf = pack_pool::take(2 * nn * len * runs.len());
        if len > 0 {
            for (dst, src) in buf.chunks_exact_mut(2 * nn * len).zip(runs) {
                let (re, im) = dst.split_at_mut(nn * len);
                for (e, blk) in src.as_ref().chunks_exact(nn).enumerate() {
                    for r in 0..n {
                        for s in 0..n {
                            let z = if transpose {
                                blk[s * n + r]
                            } else {
                                blk[r * n + s]
                            };
                            re[(r * n + s) * len + e] = z.re;
                            im[(r * n + s) * len + e] = z.im;
                        }
                    }
                }
            }
        }
        StagedRuns {
            n,
            len,
            runs: runs.len(),
            transposed: transpose,
            buf,
        }
    }

    /// Blocks per run.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the runs hold no block.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Run `r`'s `[re | im]` planes, read from energy `at` on.
    fn window(&self, r: usize, at: usize) -> Lanes<'_> {
        let size = 2 * self.n * self.n * self.len;
        Lanes {
            planes: &self.buf[r * size..(r + 1) * size],
            stride: self.len,
            at,
        }
    }
}

impl Drop for StagedRuns {
    fn drop(&mut self) {
        pack_pool::give(std::mem::take(&mut self.buf));
    }
}

/// `acc[i·us.runs + j] += Σ_{e < len} tr(U_j[u_at + e] · V_i[v_at + e])`
/// over a window of `len` blocks of each run (`vs` staged transposed, `us`
/// not), with the bits of one trace at a time: each trace sums
/// `u[r][s]·v[s][r]` from zero over `r`, then `s`, and the traces reach
/// `acc` in window order. The multiply-add chains of all energies of the
/// window run side by side in vector lanes. Counts no flops: the caller
/// accounts `8·n²` per trace.
pub fn trace_windows_acc(
    us: &StagedRuns,
    u_at: usize,
    vs: &StagedRuns,
    v_at: usize,
    len: usize,
    acc: &mut [Complex64],
) {
    assert!(
        !us.transposed && vs.transposed,
        "U staged as is, V transposed"
    );
    assert!(us.n == vs.n && u_at + len <= us.len && v_at + len <= vs.len);
    assert_eq!(acc.len(), us.runs * vs.runs, "one accumulator per (i, j)");
    if len == 0 || us.n == 0 {
        return;
    }
    let mut buf = pack_pool::take(2 * len);
    let sums = &mut buf[..2 * len];
    for i in 0..vs.runs {
        let v = vs.window(i, v_at);
        for j in 0..us.runs {
            trace_lanes(us.window(j, u_at), v, sums);
            let (sr, si) = sums.split_at(len);
            let a = &mut acc[i * us.runs + j];
            for (&r, &im) in sr.iter().zip(si) {
                *a += c64(r, im);
            }
        }
    }
    pack_pool::give(buf);
}

/// A window of one staged run: its `[re | im]` planes, the energy stride
/// between two plane entries and the window's first energy.
#[derive(Clone, Copy)]
struct Lanes<'a> {
    planes: &'a [f64],
    stride: usize,
    at: usize,
}

impl<'a> Lanes<'a> {
    /// The window's `cnt` energies of each plane entry, as `(re, im)`.
    fn rows(self, cnt: usize) -> impl Iterator<Item = (&'a [f64], &'a [f64])> {
        let (re, im) = self.planes.split_at(self.planes.len() / 2);
        let window = move |x: &'a [f64]| &x[self.at..self.at + cnt];
        re.chunks_exact(self.stride)
            .map(window)
            .zip(im.chunks_exact(self.stride).map(window))
    }
}

/// `sums = [re | im]` of one trace per energy lane of two staged windows,
/// in its AVX2+FMA instantiation when the host has one.
fn trace_lanes(u: Lanes<'_>, v: Lanes<'_>, sums: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: `fma_available` is only true when AVX2 and FMA were detected.
        unsafe { trace_lanes_avx2(u, v, sums) };
        return;
    }
    trace_lanes_body(u, v, sums);
}

/// AVX2+FMA instantiation of [`trace_lanes_body`]; bits as portable as
/// [`sbsmm_split_avx2`]'s.
///
/// # Safety
/// The host must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn trace_lanes_avx2(u: Lanes<'_>, v: Lanes<'_>, sums: &mut [f64]) {
    trace_lanes_body(u, v, sums);
}

/// Per energy lane `e` of the window: `Σ_idx u[idx][e] · v[idx][e]` from
/// zero in `idx` order, each step spelled like `Complex64::mul_add`.
#[inline(always)]
fn trace_lanes_body(u: Lanes<'_>, v: Lanes<'_>, sums: &mut [f64]) {
    let cnt = sums.len() / 2;
    let (sr, si) = sums.split_at_mut(cnt);
    sr.fill(0.0);
    si.fill(0.0);
    for ((ur, ui), (vr, vi)) in u.rows(cnt).zip(v.rows(cnt)) {
        let lanes = sr.iter_mut().zip(si.iter_mut());
        for (((r, i), (&xr, &xi)), (&yr, &yi)) in
            lanes.zip(ur.iter().zip(ui)).zip(vr.iter().zip(vi))
        {
            *r = *r + xr * yr - xi * yi;
            *i = *i + xr * yi + xi * yr;
        }
    }
}

// ---------------------------------------------------------------------------
// Packing: operand layout adapters
// ---------------------------------------------------------------------------

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

/// Pack `mc` rows of A (row-major, row stride `lda`; from row `ic`) at the
/// depth indices of `ks` into MR-row micro-panels with split re/im lanes
/// per k-slice; rows beyond `mc` are zero-padded so the microkernel never
/// needs edge cases.
fn pack_a(a: &[Complex64], lda: usize, ic: usize, mc: usize, ks: Window<'_>, buf: &mut [f64]) {
    match ks {
        Window::Range(pc, kc) => pack_a_at(a, lda, ic, mc, pc..pc + kc, buf),
        Window::List(ks) => pack_a_at(a, lda, ic, mc, ks.iter().copied(), buf),
    }
}

/// [`pack_a`] over one depth-index sequence, monomorphized per layout so
/// the contiguous case packs as tightly as a plain range loop.
fn pack_a_at(
    a: &[Complex64],
    lda: usize,
    ic: usize,
    mc: usize,
    ks: impl Iterator<Item = usize> + Clone,
    buf: &mut [f64],
) {
    let mut off = 0;
    let mut ir = 0;
    while ir < mc {
        let mr = (mc - ir).min(MR);
        for col in ks.clone() {
            for i in 0..MR {
                let z = if i < mr {
                    a[(ic + ir + i) * lda + col]
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

/// Pack `nc` columns of B (from column `jc`) at the depth indices of `ks`
/// into NR-column micro-panels with split re/im lanes per k-slice,
/// zero-padded to NR.
fn pack_b(src: PanelB<'_>, ks: Window<'_>, jc: usize, nc: usize, buf: &mut [f64]) {
    match ks {
        Window::Range(pc, kc) => pack_b_at(src, pc..pc + kc, jc, nc, buf),
        Window::List(ks) => pack_b_at(src, ks.iter().copied(), jc, nc, buf),
    }
}

/// [`pack_b`] over one depth-index sequence, monomorphized like
/// [`pack_a_at`].
fn pack_b_at(
    src: PanelB<'_>,
    ks: impl Iterator<Item = usize> + Clone,
    jc: usize,
    nc: usize,
    buf: &mut [f64],
) {
    let mut off = 0;
    let mut jr = 0;
    while jr < nc {
        let nr = (nc - jr).min(NR);
        for row in ks.clone() {
            for j in 0..NR {
                let z = if j < nr {
                    src.get(row, jc + jr + j)
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

/// `a` (row-major `m x k`) packed whole the way the packed kernel packs A:
/// MR-row micro-panels of `k` slices `[re × MR | im × MR]`, rows beyond `m`
/// zero. In a pooled buffer; return it with [`give_packed`].
pub(crate) fn packed_rows(a: &[Complex64], m: usize, k: usize) -> Vec<f64> {
    let mut buf = pack_pool::take(m.next_multiple_of(MR) * k * 2);
    pack_a(a, k, 0, m, Window::Range(0, k), &mut buf);
    buf
}

/// A pooled `f64` buffer of at least `len` entries, contents unspecified.
/// Return it with [`give_packed`].
pub(crate) fn take_packed(len: usize) -> Vec<f64> {
    pack_pool::take(len)
}

/// Return a [`packed_rows`] / [`take_packed`] buffer to the pool.
pub(crate) fn give_packed(buf: Vec<f64>) {
    pack_pool::give(buf);
}

/// Thread-local pool of packing buffers: `take`/`give` instead of a held
/// borrow, so a GEMM nested inside another's checkout window can't double-borrow.
mod pack_pool {
    use std::cell::RefCell;

    thread_local! {
        static POOL: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
    }

    pub fn take(len: usize) -> Vec<f64> {
        let mut buf = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        buf
    }

    pub fn give(buf: Vec<f64>) {
        POOL.with(|p| {
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

/// Packed kernel: `c += scale · a @ op(b)`, A row-major at row stride
/// `lda`, C at row stride `ldc`. The loop order is jc(NC) → pc(KC) → ic,
/// where the ic loop walks MC-high row bands — or, with `split`, MR-aligned
/// bands distributed over [`par`], the packed B-panel shared read-only.
/// The KC slices cut the full depth `0..k`; each packs the indices of
/// `depth` it holds, so a slice with none still flushes its `+0` sums.
/// Kept out of line so an entry point stays small enough to inline into its
/// caller: a tiny naive product must not pay this function's stack frame.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn gemm_blocked<const INSTRUMENT: bool>(
    (m, k, n): (usize, usize, usize),
    depth: Depth<'_>,
    a: &[Complex64],
    lda: usize,
    b: PanelB<'_>,
    c: &mut [Complex64],
    ldc: usize,
    scale: Complex64,
    split: bool,
) {
    // Cut C after its last row, so the row-band chunks below tile it exactly.
    let c = &mut c[..(m - 1) * ldc + n];
    // Band height: enough bands to feed every thread, MR-aligned, at most MC
    // so the packed A-panel stays L2-resident.
    let band_rows = if split {
        m.div_ceil(par::width()).next_multiple_of(MR).clamp(MR, MC)
    } else {
        MC
    };
    // The depth the KC slices cut: the full product's, for a gathered one.
    let k = depth.full((m, k, n)).1;
    let mut jc = 0;
    while jc < n {
        let nc = (n - jc).min(NC);
        let nc_pad = nc.next_multiple_of(NR);
        let mut pc = 0;
        while pc < k {
            let ks = depth.window(pc, (k - pc).min(KC));
            let mut b_buf = pack_pool::take(nc_pad * ks.len() * 2);
            maybe_timed::<INSTRUMENT, _>(qt_telemetry::counters::HotSection::GemmPack, || {
                pack_b(b, ks, jc, nc, &mut b_buf)
            });
            let b_pack: &[f64] = &b_buf;
            // Band `t` holds rows `t·band_rows..` of C from column 0.
            let band = |t: usize, cb: &mut [Complex64]| {
                let ic = t * band_rows;
                let mc = (m - ic).min(band_rows);
                let cb = &mut cb[jc..];
                process_band::<INSTRUMENT>(a, lda, ic, mc, ks, nc, b_pack, cb, ldc, scale);
            };
            if split {
                par::for_each_chunk_mut(c, band_rows * ldc, band);
            } else {
                for (t, cb) in c.chunks_mut(band_rows * ldc).enumerate() {
                    band(t, cb);
                }
            }
            pack_pool::give(b_buf);
            pc += KC;
        }
        jc += NC;
    }
}

/// Pack one A row band and sweep the microkernel over its `(ir, jr)` tiles.
/// `c` starts at the band's `(0, jc)` entry with row stride `ldc`.
#[allow(clippy::too_many_arguments)]
fn process_band<const INSTRUMENT: bool>(
    a: &[Complex64],
    lda: usize,
    ic: usize,
    mc: usize,
    ks: Window<'_>,
    nc: usize,
    b_pack: &[f64],
    c: &mut [Complex64],
    ldc: usize,
    scale: Complex64,
) {
    use qt_telemetry::counters::HotSection;
    let (mc_pad, kc) = (mc.next_multiple_of(MR), ks.len());
    let mut a_buf = pack_pool::take(mc_pad * kc * 2);
    maybe_timed::<INSTRUMENT, _>(HotSection::GemmPack, || {
        pack_a(a, lda, ic, mc, ks, &mut a_buf)
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

/// True when the host supports the AVX2+FMA instantiations of the
/// microkernel, SBSMM and the trace lanes (one cached relaxed atomic load
/// per query).
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
/// enabled so the autovectorizer emits 256-bit broadcast multiply and add
/// sequences (Rust never contracts them into a fused multiply-add).
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
/// `C[MR x NR] += A_panel @ B_panel`. The split lanes make every step a
/// plain f64 multiply and add, so the autovectorizer broadcasts over the NR
/// lane without complex-interleave shuffles.
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
            gemm_bdagger_acc(
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
        gemm_bdagger_acc(
            3,
            5,
            4,
            a.as_slice(),
            b.as_slice(),
            &mut out,
            Complex64::ONE,
        );
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
            gemm_bdagger_acc(
                m,
                k,
                n,
                a.as_slice(),
                b.as_slice(),
                &mut out,
                Complex64::ONE,
            );
            let expect = a.matmul(&b.dagger());
            let got = Matrix::from_vec(m, n, out);
            assert!(got.max_abs_diff(&expect) < 1e-10, "{m}x{k}x{n}");
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
    fn depth_lists_count_only_the_listed_flops() {
        let mut r = rng();
        let (m, k, n) = (16, 40, 12);
        let ks: Vec<usize> = (0..k).step_by(4).collect();
        let a = Matrix::random(m, k, &mut r);
        let b = Matrix::random(k, n, &mut r);
        let (_, d) = crate::flops::count_flops_here(|| {
            let mut c = Matrix::zeros(m, n);
            gemm_acc_over(&ks, &a, &b, &mut c);
        });
        assert_eq!(d, 8 * (m * ks.len() * n) as u64);
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
            gemm_bdagger_acc(m, k, n, &a[..m * k], &bd, &mut out, Complex64::ONE);
        });
        assert_eq!(d, per);
        let (_, d) = crate::flops::count_flops_here(|| {
            let mut out = vec![Complex64::ZERO; m * n];
            gemm_blocked_acc_uninstrumented(m, k, n, &a[..m * k], &b[..k * n], &mut out);
        });
        assert_eq!(d, 0, "the uninstrumented twin counts no flops");
    }

    /// The instantiation `sbsmm_for` hands the host (on an AVX2 host, the
    /// interleaved kernel for even `N` and the AVX2 build of the split-lane
    /// body for odd `N`) against the portable body, bit for bit: exact
    /// zeros in A (`-0` too) that `Axpy` skips and `Dot` multiplies, a
    /// whole zero row, and C seeded with `-0`.
    fn sbsmm_instantiation_has_the_portable_bits<const N: usize>() {
        let mut r = rng();
        let kernel = sbsmm_for(N).expect("every N <= 8 has an instantiation");
        for order in [Naive::Axpy, Naive::Dot] {
            for scale in [Complex64::ONE, c64(-1.5, 0.25)] {
                for batch in [1, 7, 64] {
                    let mut a = randv(batch * N * N, &mut r);
                    a[..N].fill(Complex64::ZERO);
                    for (i, z) in a.iter_mut().enumerate().skip(N).step_by(3) {
                        *z = if i % 2 == 0 {
                            Complex64::ZERO
                        } else {
                            c64(-0.0, 0.0)
                        };
                    }
                    let b = randv(N * N, &mut r);
                    let mut c0 = randv(batch * N * N, &mut r);
                    for z in c0.iter_mut().step_by(2) {
                        *z = c64(-0.0, -0.0);
                    }
                    let mut got = c0.clone();
                    kernel(order, &a, &b, &mut got, scale);
                    let mut want = c0;
                    sbsmm_body::<N>(order, &a, &b, &mut want, scale);
                    let same = got.iter().zip(&want).all(|(x, y)| {
                        x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
                    });
                    assert!(same, "N={N} {order:?} scale={scale:?} batch={batch}");
                }
            }
        }
    }

    #[test]
    fn sbsmm_instantiations_have_the_portable_bits() {
        sbsmm_instantiation_has_the_portable_bits::<1>();
        sbsmm_instantiation_has_the_portable_bits::<2>();
        sbsmm_instantiation_has_the_portable_bits::<3>();
        sbsmm_instantiation_has_the_portable_bits::<4>();
        sbsmm_instantiation_has_the_portable_bits::<5>();
        sbsmm_instantiation_has_the_portable_bits::<6>();
        sbsmm_instantiation_has_the_portable_bits::<7>();
        sbsmm_instantiation_has_the_portable_bits::<8>();
    }
}
