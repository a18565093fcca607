//! Property tests for the CSR sparse kernels: the conversions must
//! roundtrip exactly, every product form must agree with the dense
//! reference to 1e-12 (only summation-order daylight at these sizes),
//! transposition must be an involution, and the degenerate inputs —
//! empty rows, all-zero matrices, density 0 and 1 — must behave.

use proptest::prelude::*;
use qt_linalg::{c64, Complex64, CsrMatrix, Matrix};

/// Deterministic dense matrix at roughly the requested density, derived
/// from the proptest-chosen seed (same LCG as the GEMM property tests).
fn sparse_dense(rows: usize, cols: usize, density: f64, seed: u64) -> Matrix {
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    Matrix::from_fn(rows, cols, |_, _| {
        let keep = (next() + 1.0) / 2.0 < density;
        let (re, im) = (next(), next());
        if keep {
            c64(re, im)
        } else {
            Complex64::ZERO
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn from_dense_to_dense_roundtrips_exactly(
        rows in 1usize..24,
        cols in 1usize..24,
        density in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let dense = sparse_dense(rows, cols, density, seed);
        let csr = CsrMatrix::from_dense(&dense, 0.0);
        // Exact: conversion moves values, it never rounds them.
        prop_assert_eq!(csr.to_dense().max_abs_diff(&dense), 0.0);
        // And a second conversion is bitwise-stable.
        prop_assert_eq!(CsrMatrix::from_dense(&csr.to_dense(), 0.0), csr);
    }

    #[test]
    fn spgemm_matches_dense_reference(
        m in 1usize..16,
        k in 1usize..16,
        n in 1usize..16,
        da in 0.0f64..=1.0,
        db in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let a = sparse_dense(m, k, da, seed);
        let b = sparse_dense(k, n, db, seed ^ 1);
        let got = CsrMatrix::from_dense(&a, 0.0)
            .mul_csr(&CsrMatrix::from_dense(&b, 0.0))
            .to_dense();
        prop_assert!(got.max_abs_diff(&a.matmul(&b)) < 1e-12);
    }

    #[test]
    fn csrmm_forms_match_dense_reference(
        m in 1usize..14,
        k in 1usize..14,
        n in 1usize..14,
        density in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let s_dense = sparse_dense(k, n, density, seed);
        let s = CsrMatrix::from_dense(&s_dense, 0.0);
        let left = sparse_dense(m, k, 1.0, seed ^ 2);
        let right = sparse_dense(n, m, 1.0, seed ^ 3);
        // Dense × sparse (scaled accumulate) against the dense product.
        let z = c64(0.5, -0.25);
        let mut got = sparse_dense(m, n, 1.0, seed ^ 4);
        let mut want = got.clone();
        s.rmul_dense_scaled_acc(&left, z, &mut got);
        want.axpy(z, &left.matmul(&s_dense));
        prop_assert!(got.max_abs_diff(&want) < 1e-12);
        // Sparse × dense.
        let got = s.mul_dense(&right);
        prop_assert!(got.max_abs_diff(&s_dense.matmul(&right)) < 1e-12);
        // Dense × sparse-dagger.
        let a2 = sparse_dense(m, n, 1.0, seed ^ 5);
        let mut got = sparse_dense(m, k, 1.0, seed ^ 6);
        let mut want = got.clone();
        s.rmul_dagger_scaled_acc(&a2, z, &mut got);
        want.axpy(z, &a2.matmul(&s_dense.dagger()));
        prop_assert!(got.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn transpose_is_an_involution(
        rows in 1usize..24,
        cols in 1usize..24,
        density in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let csr = CsrMatrix::from_dense(&sparse_dense(rows, cols, density, seed), 0.0);
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn matvec_matches_dense(
        n in 1usize..24,
        density in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let dense = sparse_dense(n, n, density, seed);
        let x: Vec<Complex64> = sparse_dense(n, 1, 1.0, seed ^ 7).into_vec();
        let y = CsrMatrix::from_dense(&dense, 0.0).matvec(&x);
        for (i, yi) in y.iter().enumerate() {
            let want: Complex64 = (0..n).map(|j| dense[(i, j)] * x[j]).sum();
            prop_assert!((*yi - want).abs() < 1e-12);
        }
    }
}

/// Adversarial inputs the random sweep can miss.
#[test]
fn adversarial_shapes_and_densities() {
    // All-zero matrix: zero nnz, empty products at both extremes.
    let zero = CsrMatrix::from_dense(&Matrix::zeros(6, 4), 0.0);
    assert_eq!(zero.nnz(), 0);
    assert_eq!(zero.density(), 0.0);
    assert_eq!(zero.to_dense().max_abs(), 0.0);
    let b = sparse_dense(4, 5, 1.0, 42);
    assert_eq!(zero.mul_dense(&b).max_abs(), 0.0);
    assert_eq!(
        zero.mul_csr(&CsrMatrix::from_dense(&b, 0.0)).nnz(),
        0,
        "0 · B must stay structurally empty"
    );

    // Fully dense (density 1): CSR carries every entry and still agrees.
    let full_dense = sparse_dense(7, 7, 1.0, 7);
    let full = CsrMatrix::from_dense(&full_dense, 0.0);
    assert_eq!(full.nnz(), 49);
    assert!((full.density() - 1.0).abs() < 1e-15);
    let c = sparse_dense(7, 7, 1.0, 8);
    assert!(
        full.mul_dense(&c).max_abs_diff(&full_dense.matmul(&c)) < 1e-12,
        "density-1 CSRMM must match dense GEMM"
    );

    // Interior empty rows: first/middle/last rows all structurally empty.
    let mut holes = Matrix::zeros(5, 5);
    holes[(1, 3)] = c64(2.0, -1.0);
    holes[(3, 0)] = c64(-0.5, 0.25);
    let h = CsrMatrix::from_dense(&holes, 0.0);
    assert_eq!(h.nnz(), 2);
    assert_eq!(h.to_dense().max_abs_diff(&holes), 0.0);
    let hv = h.matvec(&[Complex64::ONE; 5]);
    assert_eq!(hv[0], Complex64::ZERO);
    assert_eq!(hv[1], c64(2.0, -1.0));
    assert_eq!(hv[4], Complex64::ZERO);
    assert_eq!(h.transpose().transpose(), h);

    // A 1×1 degenerate matrix through every op.
    let one = CsrMatrix::from_dense(&Matrix::from_fn(1, 1, |_, _| c64(3.0, 4.0)), 0.0);
    assert_eq!(one.nnz(), 1);
    let p = one.mul_csr(&one).to_dense();
    assert!((p[(0, 0)] - c64(-7.0, 24.0)).abs() < 1e-12);
}

/// A `rows x cols` block at `density` inside random interleaved row and
/// column supports (each line kept with probability 1/2), like a coupling
/// block whose atoms only partly face the neighbouring slab.
fn supported(rows: usize, cols: usize, density: f64, seed: u64) -> Matrix {
    let line = |n: usize, s: u64| -> Vec<bool> {
        let v = sparse_dense(n, 1, 1.0, s);
        (0..n).map(|i| v[(i, 0)].re > 0.0).collect()
    };
    let (keep_r, keep_c) = (line(rows, seed ^ 11), line(cols, seed ^ 12));
    let mut m = sparse_dense(rows, cols, density, seed);
    for i in 0..rows {
        for j in 0..cols {
            if !(keep_r[i] && keep_c[j]) {
                m[(i, j)] = Complex64::ZERO;
            }
        }
    }
    m
}

/// Every fifth entry `-0`: a flush of an all-zero sum turns it into `+0`
/// on the packed route, which a sparse kernel must reproduce.
fn with_negative_zeros(mut c: Matrix) -> Matrix {
    for z in c.as_mut_slice().iter_mut().step_by(5) {
        *z = c64(-0.0, -0.0);
    }
    c
}

fn bits(m: &Matrix) -> Vec<(u64, u64)> {
    m.as_slice()
        .iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

/// `(m, k, n)` of the dense product each kernel stands in for: both
/// routes, both sides of the MR/NR edges, two KC slices (`k = KC + 4`).
const SHAPES: [(usize, usize, usize); 9] = {
    use qt_linalg::gemm::{KC, MR, NR};
    [
        (3, 5, 7),
        (7, 8, 9),
        (MR - 1, 32, 16),
        (MR, 32, 16),
        (16, 32, NR - 1),
        (16, 32, NR + 1),
        (6, KC + 4, 9),
        (48, 48, 48),
        (64, 64, 64),
    ]
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_kernels_have_the_dense_entrys_bits(
        shape in 0usize..SHAPES.len(),
        density in 0.0f64..=0.5,
        scale in 0usize..3,
        seed in any::<u64>(),
    ) {
        use qt_linalg::gemm;
        let (m, k, n) = SHAPES[shape];
        let z = [Complex64::ONE, c64(-1.0, 0.0), c64(0.5, -0.25)][scale];
        // CSR × dense against `gemm_acc` on the densified CSR.
        let s = supported(m, k, density, seed);
        let d = sparse_dense(k, n, 1.0, seed ^ 1);
        let c0 = with_negative_zeros(sparse_dense(m, n, 1.0, seed ^ 2));
        let (mut got, mut want) = (c0.clone(), c0);
        CsrMatrix::from_dense(&s, 0.0).mul_dense_acc(&d, &mut got);
        gemm::gemm_acc(&s, &d, &mut want);
        prop_assert!(bits(&got) == bits(&want), "mul_dense_acc {m}x{k}x{n}");
        // Dense × CSR against `gemm_scaled_acc`.
        let d = sparse_dense(m, k, 1.0, seed ^ 3);
        let s = supported(k, n, density, seed ^ 4);
        let c0 = with_negative_zeros(sparse_dense(m, n, 1.0, seed ^ 5));
        let (mut got, mut want) = (c0.clone(), c0.clone());
        CsrMatrix::from_dense(&s, 0.0).rmul_dense_scaled_acc(&d, z, &mut got);
        gemm::gemm_scaled_acc(m, k, n, d.as_slice(), s.as_slice(), want.as_mut_slice(), z);
        prop_assert!(bits(&got) == bits(&want), "rmul_dense_scaled_acc {m}x{k}x{n} {z:?}");
        // Dense × CSRᴴ against `gemm_bdagger_acc` (`s` stored `n x k`).
        let s = supported(n, k, density, seed ^ 6);
        let (mut got, mut want) = (c0.clone(), c0);
        CsrMatrix::from_dense(&s, 0.0).rmul_dagger_scaled_acc(&d, z, &mut got);
        gemm::gemm_bdagger_acc(m, k, n, d.as_slice(), s.as_slice(), want.as_mut_slice(), z);
        prop_assert!(bits(&got) == bits(&want), "rmul_dagger_scaled_acc {m}x{k}x{n} {z:?}");
    }
}
