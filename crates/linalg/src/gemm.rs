//! Complex GEMM kernels — one dispatcher over the blocked, packed,
//! register-tiled hot path and its naive fallbacks.
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
//! Every entry point is a thin call into one private dispatcher, naming its
//! operand layout (`B` row-major or `B^H`, row strides), its scale and its
//! naive fallback; the dispatcher is the only code that compares a shape
//! against `NAIVE_THRESHOLD`, [`MR`]/[`NR`] and [`PAR_THRESHOLD`]. The two
//! fallbacks sum in different orders — i-k-j row axpys ([`gemm_naive_acc`])
//! for the unscaled products, a per-entry dot then scale for the scaled
//! ones — so the fallback an entry names is part of its output bits;
//! `tests/gemm_blocked.rs` pins every entry's route bit for bit.
//!
//! Layouts are adapted in the packing step: [`gemm_bdagger_acc`]
//! conjugate-transposes B while packing it (`B^H` is never materialized),
//! and the blocked LU's in-place updates pass A, B and C row strides wider
//! than the product.

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
        1,
        a,
        k,
        b,
        out,
        n,
        Complex64::ONE,
        Some(naive_axpy),
        true,
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
    dispatch::<true>((m, k, n), 1, a, k, b, out, n, scale, Some(naive_dot), true);
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
    dispatch::<true>((m, k, n), 1, a, k, b, out, n, scale, Some(naive_dot), true);
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
    dispatch::<true>((m, k, n), 1, a, k, b, out, n, Complex64::ONE, None, true);
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
    dispatch::<false>((m, k, n), 1, a, k, b, out, n, Complex64::ONE, None, true);
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
        batch,
        a,
        k,
        b,
        out,
        n,
        Complex64::ONE,
        Some(naive_axpy),
        true,
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
        1,
        a,
        lda,
        b,
        c,
        ldc,
        scale,
        Some(naive_axpy),
        false,
    );
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

/// A small-shape kernel: `c += scale · a @ op(b)`, A row-major at row stride
/// `lda`, C at row stride `ldc`. The two sum in different orders, so which
/// one an entry point names is part of its output bits.
type Naive =
    fn((usize, usize, usize), &[Complex64], usize, PanelB<'_>, &mut [Complex64], usize, Complex64);

/// `c += scale · a @ op(b)` for `batch` products of shape `m x k x n`, with
/// A row-major at row stride `lda` and C at row stride `ldc` — the one
/// routing rule of this module:
///
/// * a product below `NAIVE_THRESHOLD` multiply-adds, or with `m < MR` or
///   `n < NR`, runs the entry's `naive` kernel if it names one; every other
///   product runs the packed kernel;
/// * when `split` allows it and the call reaches [`PAR_THRESHOLD`]
///   multiply-adds, a single product band-splits its rows over [`par`] and
///   a batch fans its items out in chunks, each item serial.
///
/// Batch items are contiguous (`lda = k`, `B` row-major `k x n`,
/// `ldc = n`). `INSTRUMENT` adds the flop accounting and the hot-section
/// timers. Inlined into every entry point, so the named kernel is a direct
/// call and the entry stays as small as a call into it.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn dispatch<const INSTRUMENT: bool>(
    (m, k, n): (usize, usize, usize),
    batch: usize,
    a: &[Complex64],
    lda: usize,
    b: PanelB<'_>,
    c: &mut [Complex64],
    ldc: usize,
    scale: Complex64,
    naive: Option<Naive>,
    split: bool,
) {
    if INSTRUMENT {
        flops::add_gemm_flops_batched(m, k, n, batch);
    }
    if batch == 0 || m == 0 || k == 0 || n == 0 {
        return;
    }
    debug_assert!(lda >= k && a.len() >= (batch * m - 1) * lda + k);
    debug_assert!(ldc >= n && c.len() >= (batch * m - 1) * ldc + n);
    let work = m * k * n;
    let naive = naive.filter(|_| work < NAIVE_THRESHOLD || m < MR || n < NR);
    let split = split && work * batch >= PAR_THRESHOLD;
    if batch == 1 {
        match naive {
            Some(kernel) => kernel((m, k, n), a, lda, b, c, ldc, scale),
            None => gemm_blocked::<INSTRUMENT>((m, k, n), a, lda, b, c, ldc, scale, split),
        }
        return;
    }
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
            Some(kernel) => kernel((m, k, n), at, k, bt, ct, n, scale),
            None => gemm_blocked::<INSTRUMENT>((m, k, n), at, k, bt, ct, n, scale, false),
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

/// Pack `mc x kc` rows of A (row-major, row stride `lda`; from row `ic`,
/// depth `pc`) into MR-row micro-panels with split re/im lanes per k-slice;
/// rows beyond `mc` are zero-padded so the microkernel never needs edge
/// cases.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    a: &[Complex64],
    lda: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    buf: &mut [f64],
) {
    let mut off = 0;
    let mut ir = 0;
    while ir < mc {
        let mr = (mc - ir).min(MR);
        for p in 0..kc {
            for i in 0..MR {
                let z = if i < mr {
                    a[(ic + ir + i) * lda + pc + p]
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
/// Kept out of line so an entry point stays small enough to inline into its
/// caller: a tiny naive product must not pay this function's stack frame.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn gemm_blocked<const INSTRUMENT: bool>(
    (m, k, n): (usize, usize, usize),
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
            // Band `t` holds rows `t·band_rows..` of C from column 0.
            let band = |t: usize, cb: &mut [Complex64]| {
                let ic = t * band_rows;
                let mc = (m - ic).min(band_rows);
                let cb = &mut cb[jc..];
                process_band::<INSTRUMENT>(a, lda, ic, mc, pc, kc, nc, b_pack, cb, ldc, scale);
            };
            if split {
                par::for_each_chunk_mut(c, band_rows * ldc, band);
            } else {
                for (t, cb) in c.chunks_mut(band_rows * ldc).enumerate() {
                    band(t, cb);
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
    a: &[Complex64],
    lda: usize,
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
        pack_a(a, lda, ic, mc, pc, kc, &mut a_buf)
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
}
