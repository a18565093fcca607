//! Property tests: the blocked/packed GEMM hierarchy must agree with the
//! naive reference kernels to within 1e-10 relative error across random
//! shapes, including the degenerate m=1/k=1/n=1 edges and sizes that are
//! not multiples of the (MR, NR, MC, KC, NC) tiles. Below them, every entry
//! point is held bit for bit to the kernel its route must reach, and the
//! block LU inverse to checksums of its bits.

use proptest::prelude::*;
use qt_linalg::gemm;
use qt_linalg::{c64, Complex64};

fn cvec(seed: u64, len: usize) -> Vec<Complex64> {
    // Deterministic per-case fill derived from the proptest-chosen seed.
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    (0..len).map(|_| c64(next(), next())).collect()
}

/// Max |got − want| relative to the operand magnitudes. The 1e-10 bound is
/// generous for f64 at these sizes; differences come only from re-association
/// of the k-loop sum.
fn rel_err(got: &[Complex64], want: &[Complex64]) -> f64 {
    let scale = want.iter().map(|z| z.abs()).fold(1.0, f64::max);
    got.iter()
        .zip(want)
        .map(|(g, w)| (*g - *w).abs())
        .fold(0.0, f64::max)
        / scale
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_matches_naive(
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
        seed in any::<u64>(),
    ) {
        let a = cvec(seed, m * k);
        let b = cvec(seed ^ 1, k * n);
        let base = cvec(seed ^ 2, m * n);
        let mut got = base.clone();
        let mut want = base;
        gemm::gemm_blocked_acc(m, k, n, &a, &b, &mut got);
        gemm::gemm_naive_acc(m, k, n, &a, &b, &mut want);
        prop_assert!(rel_err(&got, &want) < 1e-10, "{m}x{k}x{n}");
    }

    #[test]
    fn banding_never_shows_in_the_bits(
        m in 65usize..200,
        k in 64usize..80,
        n in 64usize..80,
        seed in any::<u64>(),
    ) {
        // Above the parallel threshold C splits into row bands sized by the
        // thread count; under `par::sequential` the same product runs as
        // MC-high bands on one thread. A C element's k-sum lives inside one
        // microkernel call either way, so ragged `m` (bands that are not a
        // multiple of MR, a short last band) must agree bit for bit.
        let a = cvec(seed, m * k);
        let b = cvec(seed ^ 5, k * n);
        let base = cvec(seed ^ 6, m * n);
        let mut banded = base.clone();
        let mut unbanded = base;
        gemm::gemm_blocked_acc(m, k, n, &a, &b, &mut banded);
        qt_linalg::par::sequential(|| gemm::gemm_blocked_acc(m, k, n, &a, &b, &mut unbanded));
        for (i, (x, y)) in banded.iter().zip(&unbanded).enumerate() {
            prop_assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{m}x{k}x{n}: element {i} differs"
            );
        }
    }

    #[test]
    fn dispatcher_matches_naive(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in any::<u64>(),
    ) {
        let a = cvec(seed, m * k);
        let b = cvec(seed ^ 3, k * n);
        let mut got = vec![Complex64::ZERO; m * n];
        let mut want = got.clone();
        gemm::gemm_raw_acc(m, k, n, &a, &b, &mut got);
        gemm::gemm_naive_acc(m, k, n, &a, &b, &mut want);
        prop_assert!(rel_err(&got, &want) < 1e-10, "{m}x{k}x{n}");
    }

    #[test]
    fn batched_matches_naive(
        m in 1usize..20,
        k in 1usize..20,
        n in 1usize..20,
        batch in 1usize..24,
        seed in any::<u64>(),
    ) {
        let a = cvec(seed, batch * m * k);
        let b = cvec(seed ^ 4, batch * k * n);
        let mut got = vec![Complex64::ZERO; batch * m * n];
        let mut want = got.clone();
        gemm::batched_gemm_acc(m, k, n, batch, &a, &b, &mut got);
        gemm::gemm_naive_batched_acc(m, k, n, batch, &a, &b, &mut want);
        prop_assert!(rel_err(&got, &want) < 1e-10, "{m}x{k}x{n} x{batch}");
    }

    #[test]
    fn batched_matches_per_item_naive_tightly(
        m in 1usize..16,
        k in 1usize..16,
        n in 1usize..16,
        batch in 1usize..24,
        seed in any::<u64>(),
    ) {
        // The batched path must agree with an independent per-item naive
        // triple loop to 1e-12 — at these block sizes the only daylight is
        // k-loop re-association, so the bound is tight but safe.
        let a = cvec(seed, batch * m * k);
        let b = cvec(seed ^ 8, batch * k * n);
        let base = cvec(seed ^ 9, batch * m * n);
        let mut got = base.clone();
        let mut want = base;
        gemm::batched_gemm_acc(m, k, n, batch, &a, &b, &mut got);
        for item in 0..batch {
            gemm::gemm_naive_acc(
                m, k, n,
                &a[item * m * k..(item + 1) * m * k],
                &b[item * k * n..(item + 1) * k * n],
                &mut want[item * m * n..(item + 1) * m * n],
            );
        }
        prop_assert!(rel_err(&got, &want) < 1e-12, "{m}x{k}x{n} x{batch}");
    }

    #[test]
    fn batched_shared_b_scaled_matches_per_item_naive(
        m in 1usize..16,
        k in 1usize..16,
        n in 1usize..16,
        batch in 1usize..24,
        seed in any::<u64>(),
    ) {
        // The SSE reschedule's workhorse: every batch item multiplies the
        // same right operand, and the scale rides the accumulate epilogue.
        let a = cvec(seed, batch * m * k);
        let b = cvec(seed ^ 10, k * n);
        let base = cvec(seed ^ 11, batch * m * n);
        let scale = c64(0.3, -0.7);
        let mut got = base.clone();
        let mut want = base;
        gemm::batched_gemm_shared_b_scaled_acc(m, k, n, batch, &a, &b, &mut got, scale);
        for item in 0..batch {
            let mut prod = vec![Complex64::ZERO; m * n];
            gemm::gemm_naive_acc(m, k, n, &a[item * m * k..(item + 1) * m * k], &b, &mut prod);
            for (w, p) in want[item * m * n..(item + 1) * m * n].iter_mut().zip(&prod) {
                *w += *p * scale;
            }
        }
        prop_assert!(rel_err(&got, &want) < 1e-12, "{m}x{k}x{n} x{batch}");
    }

    #[test]
    fn bdagger_matches_naive(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in any::<u64>(),
    ) {
        let a = cvec(seed, m * k);
        let b = cvec(seed ^ 5, n * k); // B is n x k; we compute A · B†
        let mut got = vec![Complex64::ZERO; m * n];
        let mut want = got.clone();
        gemm::gemm_bdagger_acc(m, k, n, &a, &b, &mut got, Complex64::ONE);
        dot_model(m, k, n, &a, Rhs::Dagger(&b), &mut want, Complex64::ONE);
        prop_assert!(rel_err(&got, &want) < 1e-10, "{m}x{k}x{n}");
    }
}

/// The edges proptest can miss: exact tile multiples, one-past boundaries,
/// and the fully degenerate shapes.
#[test]
fn explicit_tile_boundary_shapes() {
    let edge_shapes = [
        (1, 1, 1),
        (1, 256, 1),                    // KC-exact inner dimension
        (gemm::MR, gemm::KC, gemm::NR), // one exact micro/cache tile
        (gemm::MR + 1, gemm::KC + 1, gemm::NR + 1),
        (gemm::MC, 7, 9), // MC-exact row extent
        (gemm::MC + 1, 7, 9),
        (3, 300, 5), // k spans two KC panels
        (130, 10, 70),
    ];
    for (i, &(m, k, n)) in edge_shapes.iter().enumerate() {
        let a = cvec(100 + i as u64, m * k);
        let b = cvec(200 + i as u64, k * n);
        let base = cvec(300 + i as u64, m * n);
        let mut got = base.clone();
        let mut want = base;
        gemm::gemm_blocked_acc(m, k, n, &a, &b, &mut got);
        gemm::gemm_naive_acc(m, k, n, &a, &b, &mut want);
        assert!(rel_err(&got, &want) < 1e-10, "{m}x{k}x{n}");
    }
}

// ---------------------------------------------------------------------------
// Routing bits: every entry point against the kernel it must route to
// ---------------------------------------------------------------------------

/// The dispatcher's naive/blocked crossover in complex multiply-adds
/// (`gemm.rs`'s private `NAIVE_THRESHOLD`).
const NAIVE_THRESHOLD: usize = 8 * 8 * 8;

/// Right operand as the kernels read it: row-major `k x n`, or `B^H` of a
/// row-major `n x k`.
#[derive(Clone, Copy)]
enum Rhs<'a> {
    Rows(&'a [Complex64]),
    Dagger(&'a [Complex64]),
}

impl Rhs<'_> {
    fn get(self, k: usize, n: usize, p: usize, j: usize) -> Complex64 {
        match self {
            Rhs::Rows(b) => b[p * n + j],
            Rhs::Dagger(b) => b[j * k + p].conj(),
        }
    }
}

/// Scalar model of the i-k-j naive kernel: row axpys straight into C,
/// zero `a[i,p]` skipped.
fn axpy_model(m: usize, k: usize, n: usize, a: &[Complex64], b: Rhs<'_>, c: &mut [Complex64]) {
    for i in 0..m {
        for p in 0..k {
            let x = a[i * k + p];
            if x == Complex64::ZERO {
                continue;
            }
            for j in 0..n {
                c[i * n + j] = c[i * n + j].mul_add(x, b.get(k, n, p, j));
            }
        }
    }
}

/// Scalar model of the dot naive kernel: a per-entry dot product from
/// zero, folded into C with the scale. A ONE scale is skipped here; on
/// finite values that is the same bits as multiplying by it.
fn dot_model(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: Rhs<'_>,
    c: &mut [Complex64],
    scale: Complex64,
) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = Complex64::ZERO;
            for p in 0..k {
                acc = acc.mul_add(a[i * k + p], b.get(k, n, p, j));
            }
            c[i * n + j] += if scale == Complex64::ONE {
                acc
            } else {
                acc * scale
            };
        }
    }
}

/// Scalar model of the packed kernel: per `KC`-deep slice, split re/im
/// accumulators from zero, then the accumulate-with-scale epilogue.
fn blocked_model(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: Rhs<'_>,
    c: &mut [Complex64],
    scale: Complex64,
) {
    for i in 0..m {
        for j in 0..n {
            for pc in (0..k).step_by(gemm::KC) {
                let (mut re, mut im) = (0.0f64, 0.0f64);
                for p in pc..(pc + gemm::KC).min(k) {
                    let (x, y) = (a[i * k + p], b.get(k, n, p, j));
                    re += x.re * y.re - x.im * y.im;
                    im += x.re * y.im + x.im * y.re;
                }
                let o = &mut c[i * n + j];
                if scale == Complex64::ONE {
                    o.re += re;
                    o.im += im;
                } else {
                    *o += c64(re, im) * scale;
                }
            }
        }
    }
}

/// The kernel a product runs on. An entry point names the one it falls
/// back to below the crossover; the always-packed entries name `Packed`.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Route {
    Axpy,
    Dot,
    Packed,
}

fn goes_naive(m: usize, k: usize, n: usize) -> bool {
    m * k * n < NAIVE_THRESHOLD || m < gemm::MR || n < gemm::NR
}

/// Shared-B items SBSMM takes: square, at most 8 (every orbital count). It
/// sums in the entry's naive order at every batch length.
fn sbsmm_item(m: usize, k: usize, n: usize) -> bool {
    m == k && k == n && n <= 8
}

/// The expected bits of `c += scale · a @ b` under the given route.
#[allow(clippy::too_many_arguments)]
fn model(
    route: Route,
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: Rhs<'_>,
    c: &mut [Complex64],
    scale: Complex64,
) {
    match route {
        Route::Axpy => {
            assert_eq!(scale, Complex64::ONE, "the axpy fallback is unscaled");
            axpy_model(m, k, n, a, b, c)
        }
        Route::Dot => dot_model(m, k, n, a, b, c, scale),
        Route::Packed => blocked_model(m, k, n, a, b, c, scale),
    }
}

fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

/// A `cvec` fill with every seventh entry an exact zero, so the axpy
/// kernel's zero skip is exercised.
fn sparse_cvec(seed: u64, len: usize) -> Vec<Complex64> {
    let mut v = cvec(seed, len);
    for z in v.iter_mut().step_by(7) {
        *z = Complex64::ZERO;
    }
    v
}

type Entry = fn(usize, usize, usize, &[Complex64], &[Complex64], &mut [Complex64]);

#[test]
fn every_entry_routes_to_its_kernel_bit_for_bit() {
    use gemm::{MR, NR};
    let scale = c64(-1.5, 0.25);
    let one = Complex64::ONE;
    // (m, k, n), each pair straddling one edge of the routing rule.
    let shapes = [
        (7, 8, 9), // 504 < NAIVE_THRESHOLD
        (8, 8, 8), // = NAIVE_THRESHOLD
        (MR - 1, 64, 16),
        (MR, 64, 16),
        (16, 64, NR - 1),
        (16, 64, NR),
        (63, 64, 64),          // just below PAR_THRESHOLD: serial blocked
        (64, 64, 64),          // = PAR_THRESHOLD: band-split
        (65, 64, 64),          // ragged last band
        (8, gemm::KC + 44, 8), // two KC slices
    ];
    // (name, is B^H, scale, fallback, entry)
    let entries: [(&str, bool, Complex64, Route, Entry); 10] = [
        ("gemm_raw_acc", false, one, Route::Axpy, gemm::gemm_raw_acc),
        ("gemm_acc", false, one, Route::Axpy, |m, k, n, a, b, c| {
            let am = qt_linalg::Matrix::from_vec(m, k, a.to_vec());
            let bm = qt_linalg::Matrix::from_vec(k, n, b.to_vec());
            let mut cm = qt_linalg::Matrix::from_vec(m, n, c.to_vec());
            gemm::gemm_acc(&am, &bm, &mut cm);
            c.copy_from_slice(cm.as_slice());
        }),
        (
            "gemm_scaled_acc",
            false,
            scale,
            Route::Dot,
            |m, k, n, a, b, c| gemm::gemm_scaled_acc(m, k, n, a, b, c, c64(-1.5, 0.25)),
        ),
        (
            "gemm_scaled_acc(ONE)",
            false,
            one,
            Route::Dot,
            |m, k, n, a, b, c| gemm::gemm_scaled_acc(m, k, n, a, b, c, Complex64::ONE),
        ),
        (
            "gemm_bdagger_acc(scale)",
            true,
            scale,
            Route::Dot,
            |m, k, n, a, b, c| gemm::gemm_bdagger_acc(m, k, n, a, b, c, c64(-1.5, 0.25)),
        ),
        (
            "gemm_bdagger_acc(ONE)",
            true,
            one,
            Route::Dot,
            |m, k, n, a, b, c| gemm::gemm_bdagger_acc(m, k, n, a, b, c, Complex64::ONE),
        ),
        (
            "gemm_blocked_acc",
            false,
            one,
            Route::Packed,
            gemm::gemm_blocked_acc,
        ),
        (
            "gemm_blocked_acc_uninstrumented",
            false,
            one,
            Route::Packed,
            gemm::gemm_blocked_acc_uninstrumented,
        ),
        (
            "gemm_naive_acc",
            false,
            one,
            Route::Axpy,
            gemm::gemm_naive_acc,
        ),
        (
            "batched_gemm_shared_b_acc(batch 1)",
            false,
            one,
            Route::Axpy,
            |m, k, n, a, b, c| gemm::batched_gemm_shared_b_acc(m, k, n, 1, a, b, c),
        ),
    ];
    for (si, &(m, k, n)) in shapes.iter().enumerate() {
        let a = sparse_cvec(500 + si as u64, m * k);
        let b = cvec(600 + si as u64, k * n);
        let c0 = cvec(700 + si as u64, m * n);
        for &(name, dagger, s, fallback, entry) in &entries {
            let rhs = if dagger {
                Rhs::Dagger(&b)
            } else {
                Rhs::Rows(&b)
            };
            let pinned = name.starts_with("gemm_naive") || fallback == Route::Packed;
            let sbsmm = name.starts_with("batched_gemm_shared_b") && sbsmm_item(m, k, n);
            let route = if pinned || sbsmm || goes_naive(m, k, n) {
                fallback
            } else {
                Route::Packed
            };
            let mut got = c0.clone();
            entry(m, k, n, &a, &b, &mut got);
            let mut want = c0.clone();
            model(route, m, k, n, &a, rhs, &mut want, s);
            assert!(
                bits(&got) == bits(&want),
                "{name} at {m}x{k}x{n} must take the {route:?} path bit for bit"
            );
            if !pinned {
                // The test only has teeth if the other route is visible.
                let other = if route == Route::Packed {
                    fallback
                } else {
                    Route::Packed
                };
                let mut alt = c0.clone();
                model(other, m, k, n, &a, rhs, &mut alt, s);
                assert!(
                    bits(&alt) != bits(&want),
                    "{name} at {m}x{k}x{n}: routes agree"
                );
            }
        }
        // `gemm` overwrites: the raw route from a zeroed C.
        let (am, bm) = (
            qt_linalg::Matrix::from_vec(m, k, a.clone()),
            qt_linalg::Matrix::from_vec(k, n, b.clone()),
        );
        let mut out = qt_linalg::Matrix::from_vec(m, n, c0.clone());
        gemm::gemm(&am, &bm, &mut out);
        let mut want = vec![Complex64::ZERO; m * n];
        let route = if goes_naive(m, k, n) {
            Route::Axpy
        } else {
            Route::Packed
        };
        model(route, m, k, n, &a, Rhs::Rows(&b), &mut want, one);
        assert!(bits(out.as_slice()) == bits(&want), "gemm at {m}x{k}x{n}");
    }
}

#[test]
fn batched_entries_route_per_item_bit_for_bit() {
    use gemm::PAR_THRESHOLD;
    let scale = c64(0.3, -0.7);
    // (m, k, n, batch): per-item routing for `batched_gemm_acc`, on both
    // sides of the item fan-out at `per·batch = PAR_THRESHOLD`.
    for (ci, &(m, k, n, batch)) in [
        (7, 8, 9, 2),
        (7, 8, 9, 600),
        (8, 8, 8, 2),
        (8, 8, 8, PAR_THRESHOLD / 512),
        (3, 16, 16, 8),
    ]
    .iter()
    .enumerate()
    {
        let a = sparse_cvec(800 + ci as u64, batch * m * k);
        let b = cvec(900 + ci as u64, batch * k * n);
        let c0 = cvec(1000 + ci as u64, batch * m * n);
        let mut got = c0.clone();
        gemm::batched_gemm_acc(m, k, n, batch, &a, &b, &mut got);
        let mut naive = c0.clone();
        gemm::gemm_naive_batched_acc(m, k, n, batch, &a, &b, &mut naive);
        let mut want = c0.clone();
        let mut axpy = c0.clone();
        for t in 0..batch {
            let (at, bt) = (
                &a[t * m * k..(t + 1) * m * k],
                Rhs::Rows(&b[t * k * n..(t + 1) * k * n]),
            );
            let route = if goes_naive(m, k, n) {
                Route::Axpy
            } else {
                Route::Packed
            };
            let ot = &mut want[t * m * n..(t + 1) * m * n];
            model(route, m, k, n, at, bt, ot, Complex64::ONE);
            axpy_model(m, k, n, at, bt, &mut axpy[t * m * n..(t + 1) * m * n]);
        }
        assert!(bits(&got) == bits(&want), "batched {m}x{k}x{n} x{batch}");
        assert!(
            bits(&naive) == bits(&axpy),
            "naive batched {m}x{k}x{n} x{batch}"
        );
    }
    // Shared-B batches of square items of at most 8 take SBSMM in the
    // entry's naive order at every length; any other shared-B batch is one
    // `batch·m x k x n` product, routed on the stacked shape.
    let square = (1..=8).flat_map(|n| [1, 7, 8, 64].map(|batch| (n, n, n, batch)));
    let other = [
        (2, 8, 8, 3),    // 6x8x8: naive
        (2, 8, 8, 4),    // 8x8x8: blocked
        (4, 4, 3, 64),   // n < NR: naive
        (4, 64, 64, 16), // band-split
    ];
    for (ci, (m, k, n, batch)) in square.chain(other).enumerate() {
        let a = sparse_cvec(1100 + ci as u64, batch * m * k);
        let b = cvec(1200 + ci as u64, k * n);
        let c0 = cvec(1300 + ci as u64, batch * m * n);
        let mt = batch * m;
        let naive = sbsmm_item(m, k, n) || goes_naive(mt, k, n);
        if naive && !goes_naive(mt, k, n) {
            // The packed kernel the stacked shape would take sums otherwise.
            let (mut packed, mut axpy) = (c0.clone(), c0.clone());
            let rhs = Rhs::Rows(&b);
            model(
                Route::Packed,
                mt,
                k,
                n,
                &a,
                rhs,
                &mut packed,
                Complex64::ONE,
            );
            axpy_model(mt, k, n, &a, rhs, &mut axpy);
            assert!(
                bits(&packed) != bits(&axpy),
                "{m}x{k}x{n} x{batch}: routes agree"
            );
        }
        let mut got = c0.clone();
        gemm::batched_gemm_shared_b_acc(m, k, n, batch, &a, &b, &mut got);
        let mut want = c0.clone();
        let route = if naive { Route::Axpy } else { Route::Packed };
        model(
            route,
            mt,
            k,
            n,
            &a,
            Rhs::Rows(&b),
            &mut want,
            Complex64::ONE,
        );
        assert!(bits(&got) == bits(&want), "shared-B {m}x{k}x{n} x{batch}");
        let mut got = c0.clone();
        gemm::batched_gemm_shared_b_scaled_acc(m, k, n, batch, &a, &b, &mut got, scale);
        let mut want = c0.clone();
        let route = if naive { Route::Dot } else { Route::Packed };
        model(route, mt, k, n, &a, Rhs::Rows(&b), &mut want, scale);
        assert!(
            bits(&got) == bits(&want),
            "scaled shared-B {m}x{k}x{n} x{batch}"
        );
    }
}

/// FNV-1a over the `to_bits` of every re/im lane.
fn checksum(v: &[Complex64]) -> u64 {
    v.iter()
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn lu_inverse_bits_are_pinned() {
    // Block LU routes its trailing update and substitution sweeps through
    // the strided GEMM path: n = 7/16 stay inside one panel, 17 takes the
    // naive fallback, 64/128 the packed kernel.
    // Recorded before the GEMM entry points were collapsed onto one
    // dispatcher; re-record only with a stated summation-order change.
    let pinned: [(usize, u64); 5] = [
        (7, 0xc26c_9052_5931_56db),
        (16, 0x6125_5c76_239c_35aa),
        (17, 0x13bd_56fb_a581_8700),
        (64, 0xa4b1_ce79_68fb_380d),
        (128, 0x83cb_8006_399b_b968),
    ];
    let got = pinned.map(|(n, _)| {
        let a = qt_linalg::Matrix::from_vec(n, n, cvec(1400 + n as u64, n * n));
        let inv = qt_linalg::lu::invert_ws(&a).expect("random matrices invert");
        let sum = checksum(inv.as_slice());
        qt_linalg::workspace::give(inv);
        (n, sum)
    });
    assert_eq!(got, pinned, "invert_ws to_bits checksums");
}

/// `tr(u·v)` of two row-major `n x n` blocks, summed from zero over `r`,
/// then `s`: the order every trace of the Π reduction keeps.
fn one_trace(n: usize, u: &[Complex64], v: &[Complex64]) -> Complex64 {
    let mut tr = Complex64::ZERO;
    for r in 0..n {
        for s in 0..n {
            tr = tr.mul_add(u[r * n + s], v[s * n + r]);
        }
    }
    tr
}

#[test]
fn trace_runs_have_the_bits_of_one_trace_at_a_time() {
    // Every block size SBSMM instantiates and window lengths around a vector
    // width, over runs staged once: the whole of a run of that length, then
    // windows at zero, nonzero and different U/V offsets inside a longer
    // staged batch. Each trace sums from zero in (r, s) order and the traces
    // fold in window order.
    const LONG: usize = 24;
    for n in 1..=8 {
        for cnt in [1, 3, 4, 5, 9] {
            let nn = n * n;
            let seed = (100 * n + cnt) as u64;
            let whole = [(cnt, 0, 0)].into_iter();
            let windows = [(0, 0), (5, 2), (1, 13), (LONG - cnt, 3)].map(|(u, v)| (LONG, u, v));
            for (run, u_at, v_at) in whole.chain(windows) {
                let u: Vec<_> = (0..3).map(|j| cvec(seed * 8 + j, run * nn)).collect();
                let v: Vec<_> = (0..2).map(|i| cvec(seed * 8 + 4 + i, run * nn)).collect();
                let su = gemm::StagedRuns::new(n, &u, false);
                let sv = gemm::StagedRuns::new(n, &v, true);
                assert_eq!((su.len(), sv.len()), (run, run));
                let mut got = cvec(seed, 6);
                let mut want = got.clone();
                gemm::trace_windows_acc(&su, u_at, &sv, v_at, cnt, &mut got);
                for (i, vi) in v.iter().enumerate() {
                    for (j, uj) in u.iter().enumerate() {
                        for e in 0..cnt {
                            let ub = &uj[(u_at + e) * nn..][..nn];
                            let vb = &vi[(v_at + e) * nn..][..nn];
                            want[i * 3 + j] += one_trace(n, ub, vb);
                        }
                    }
                }
                let what = format!("n={n} cnt={cnt} run={run} u_at={u_at} v_at={v_at}");
                assert!(bits(&got) == bits(&want), "{what}");
            }
        }
    }
}

/// A random ascending depth list: each index of `0..k` kept with
/// probability 1/2 (interleaved runs, like an atom-structured support).
fn depth_list(seed: u64, k: usize) -> Vec<usize> {
    let coin = cvec(seed, k);
    (0..k).filter(|&p| coin[p].re > 0.0).collect()
}

/// A row-major `_ x k` fill with the columns outside `ks` zeroed.
fn zero_outside(mut a: Vec<Complex64>, k: usize, ks: &[usize]) -> Vec<Complex64> {
    for (idx, z) in a.iter_mut().enumerate() {
        if ks.binary_search(&(idx % k)).is_err() {
            *z = Complex64::ZERO;
        }
    }
    a
}

/// Every fifth entry `-0`, so the `+0` flush of a slice with no listed
/// index shows in the bits.
fn with_negative_zeros(mut c: Vec<Complex64>) -> Vec<Complex64> {
    for z in c.iter_mut().step_by(5) {
        *z = c64(-0.0, -0.0);
    }
    c
}

#[test]
fn depth_lists_keep_the_full_entrys_bits() {
    use gemm::{KC, MR, NR};
    use qt_linalg::Matrix;
    let scale = c64(-1.5, 0.25);
    // Naive and packed routes, both sides of the MR/NR edges, two KC
    // slices (`KC + 4`), the band-split threshold.
    let shapes = [
        (3, 5, 7),
        (7, 8, 9),
        (MR - 1, 64, 16),
        (MR, 64, 16),
        (16, 64, NR - 1),
        (16, 64, NR + 1),
        (9, KC + 4, 6),
        (48, 48, 48),
        (64, 64, 64),
    ];
    for (si, &(m, k, n)) in shapes.iter().enumerate() {
        let seed = 1500 + 10 * si as u64;
        // Random supports, the empty one, and one that leaves the second
        // KC slice empty.
        let lists = [
            depth_list(seed, k),
            Vec::new(),
            (0..k.min(KC)).step_by(3).collect(),
        ];
        for (li, ks) in lists.iter().enumerate() {
            let am = Matrix::from_vec(m, k, zero_outside(cvec(seed + 1, m * k), k, ks));
            let b = Matrix::from_vec(k, n, cvec(seed + 2, k * n));
            let bd = Matrix::from_vec(n, k, cvec(seed + 3, n * k));
            let c0 = Matrix::from_vec(m, n, with_negative_zeros(cvec(seed + 4, m * n)));
            let what = format!("{m}x{k}x{n}, list {li} ({} of {k})", ks.len());
            let (mut got, mut want) = (c0.clone(), c0.clone());
            gemm::gemm_acc_over(ks, &am, &b, &mut got);
            gemm::gemm_acc(&am, &b, &mut want);
            assert!(
                bits(got.as_slice()) == bits(want.as_slice()),
                "gemm_acc_over {what}"
            );
            for s in [Complex64::ONE, scale] {
                let (mut got, mut want) = (c0.clone(), c0.clone());
                gemm::gemm_scaled_acc_over(ks, &am, &b, &mut got, s);
                let (a, bs) = (am.as_slice(), b.as_slice());
                gemm::gemm_scaled_acc(m, k, n, a, bs, want.as_mut_slice(), s);
                assert!(
                    bits(got.as_slice()) == bits(want.as_slice()),
                    "gemm_scaled_acc_over({s:?}) {what}"
                );
                let (mut got, mut want) = (c0.clone(), c0.clone());
                gemm::gemm_bdagger_acc_over(ks, &am, &bd, &mut got, s);
                gemm::gemm_bdagger_acc(m, k, n, a, bd.as_slice(), want.as_mut_slice(), s);
                assert!(
                    bits(got.as_slice()) == bits(want.as_slice()),
                    "gemm_bdagger_acc_over({s:?}) {what}"
                );
            }
        }
    }
}

/// `m[rows, cols]` as a new matrix.
fn gather(m: &qt_linalg::Matrix, rows: &[usize], cols: &[usize]) -> qt_linalg::Matrix {
    qt_linalg::Matrix::from_fn(rows.len(), cols.len(), |i, j| m[(rows[i], cols[j])])
}

#[test]
fn gathered_products_keep_the_full_entrys_bits() {
    use gemm::{KC, MR, NR};
    use qt_linalg::Matrix;
    // Naive and packed routes, a full shape whose compact one would route
    // differently, and two KC slices (`KC + 4`) cut by full index.
    let shapes = [(3, 5, 7), (8, 8, 8), (MR + 4, 64, NR + 4), (9, KC + 4, 6)];
    for (si, &(m, k, n)) in shapes.iter().enumerate() {
        let seed = 1700 + 10 * si as u64;
        let rows = depth_list(seed + 5, m);
        let cols = depth_list(seed + 6, n);
        let lists = [depth_list(seed, k), (0..k).collect(), Vec::new()];
        for (li, ks) in lists.iter().enumerate() {
            let what = format!("{m}x{k}x{n}, list {li} ({} of {k})", ks.len());
            // A zero outside the columns `ks`, over an `out` holding `-0`s.
            let a = Matrix::from_vec(m, k, zero_outside(cvec(seed + 1, m * k), k, ks));
            let b = Matrix::from_vec(k, n, cvec(seed + 2, k * n));
            let c0 = Matrix::from_vec(m, n, with_negative_zeros(cvec(seed + 4, m * n)));
            let mut want = c0.clone();
            gemm::gemm_acc(&a, &b, &mut want);
            let mut got = gather(&c0, &rows, &cols);
            let (ga, gb) = (gather(&a, &rows, ks), gather(&b, ks, &cols));
            gemm::gemm_acc_gathered((m, k, n), ks, &ga, &gb, &mut got);
            let want_c = gather(&want, &rows, &cols);
            assert!(
                bits(got.as_slice()) == bits(want_c.as_slice()),
                "A zero outside ks: {what}"
            );
            // B zero outside the rows `ks` (A dense), over a `-0`-free out.
            let b = Matrix::from_vec(n, k, zero_outside(cvec(seed + 3, n * k), k, ks)).transpose();
            let a = Matrix::from_vec(m, k, cvec(seed + 7, m * k));
            let c0 = Matrix::from_vec(m, n, cvec(seed + 8, m * n));
            let mut want = c0.clone();
            gemm::gemm_acc(&a, &b, &mut want);
            let mut got = gather(&c0, &rows, &cols);
            let (ga, gb) = (gather(&a, &rows, ks), gather(&b, ks, &cols));
            gemm::gemm_acc_gathered((m, k, n), ks, &ga, &gb, &mut got);
            let want_c = gather(&want, &rows, &cols);
            assert!(
                bits(got.as_slice()) == bits(want_c.as_slice()),
                "B zero outside ks: {what}"
            );
        }
    }
}

#[test]
fn route_is_the_dispatchers_rule() {
    for (m, k, n) in [(7, 8, 9), (8, 8, 8), (3, 64, 16), (16, 64, 3), (64, 64, 64)] {
        for naive in [gemm::Naive::Axpy, gemm::Naive::Dot] {
            let want = if goes_naive(m, k, n) {
                gemm::Route::Naive(naive)
            } else {
                gemm::Route::Blocked
            };
            assert_eq!(gemm::route((m, k, n), naive), want, "{m}x{k}x{n}");
        }
    }
}
