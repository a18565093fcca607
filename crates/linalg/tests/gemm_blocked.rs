//! Property tests: the blocked/packed GEMM hierarchy must agree with the
//! `gemm_naive_*` reference kernels to within 1e-10 relative error across
//! random shapes, including the degenerate m=1/k=1/n=1 edges and sizes that
//! are not multiples of the (MR, NR, MC, KC, NC) tiles.

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
        gemm::gemm_bdagger_acc(m, k, n, &a, &b, &mut got);
        gemm::gemm_naive_bdagger_acc(m, k, n, &a, &b, &mut want);
        prop_assert!(rel_err(&got, &want) < 1e-10, "{m}x{k}x{n}");
    }

    #[test]
    fn window_matches_naive(
        no in 1usize..12,
        win in 1usize..24,
        seed in any::<u64>(),
    ) {
        let nn = no * no;
        let a = cvec(seed, win * nn);
        let b = cvec(seed ^ 6, win * nn);
        let base = cvec(seed ^ 7, nn);
        let scale = c64(0.3, -0.7);
        let mut got = base.clone();
        let mut want = base;
        gemm::gemm_window_acc(no, win, &a, &b, &mut got, scale);
        gemm::gemm_naive_window_acc(no, win, &a, &b, &mut want, scale);
        prop_assert!(rel_err(&got, &want) < 1e-10, "no={no} win={win}");
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
