//! LU factorization with partial pivoting for complex dense matrices.
//!
//! The RGF recursion inverts one diagonal block per forward step
//! (`gR_n = (A_nn − A_{n,n-1} gR_{n-1} A_{n-1,n})^{-1}`), so a robust dense
//! inverse is the second-most executed kernel after GEMM.

use crate::complex::Complex64;
use crate::dense::Matrix;
use crate::flops;
use std::fmt;

/// Error returned when a pivot is (numerically) zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrix;

impl fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular to working precision")
    }
}

impl std::error::Error for SingularMatrix {}

/// Packed LU factorization `P·A = L·U` of a square matrix.
#[derive(Debug)]
pub struct Lu {
    lu: Matrix,
    piv: Vec<usize>,
}

/// Column-panel width of the blocked factorization: matches the
/// substitution's [`SOLVE_BLOCK`] so both phases hand the packed GEMM
/// kernel the same rank-16 updates.
const FACTOR_BLOCK: usize = 16;

/// Factor `lu` in place with partial pivoting; `piv` must hold the
/// identity permutation on entry. The shared core of [`Lu::factor`] and
/// the workspace-pooled [`invert_ws`].
///
/// Blocked right-looking: each `FACTOR_BLOCK`-wide column panel is
/// factored with scalar rank-1 updates (pivot search over the full
/// remaining column height, row swaps across the full width — the same
/// pivots partial pivoting would pick unblocked), then the panel's `U12`
/// strip is completed by a small in-panel triangular solve and the
/// trailing submatrix takes one `A22 −= L21·U12` rank-`FACTOR_BLOCK`
/// update through the packed GEMM kernel, where the bulk of the `n³/3`
/// work lives.
fn factor_in_place(lu: &mut Matrix, piv: &mut [usize]) -> Result<(), SingularMatrix> {
    let n = lu.rows();
    // ~8/3 n^3 real flop for complex LU.
    flops::add_flops((8 * n as u64 * n as u64 * n as u64) / 3);
    let mut k0 = 0;
    while k0 < n {
        let k1 = (k0 + FACTOR_BLOCK).min(n);
        // Panel factorization: rank-1 updates restricted to the panel's
        // own columns.
        for col in k0..k1 {
            let mut p = col;
            let mut best = lu[(col, col)].norm_sqr();
            for r in col + 1..n {
                let v = lu[(r, col)].norm_sqr();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best == 0.0 || !best.is_finite() {
                return Err(SingularMatrix);
            }
            if p != col {
                piv.swap(p, col);
                for j in 0..n {
                    let tmp = lu[(col, j)];
                    lu[(col, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
            }
            let pivot_inv = lu[(col, col)].inv();
            for r in col + 1..n {
                let factor = lu[(r, col)] * pivot_inv;
                lu[(r, col)] = factor;
                if factor == Complex64::ZERO {
                    continue;
                }
                for j in col + 1..k1 {
                    let u = lu[(col, j)];
                    lu[(r, j)] = lu[(r, j)].mul_add(-factor, u);
                }
            }
        }
        if k1 < n {
            let s = lu.as_mut_slice();
            // U12 := L11⁻¹·A12 — unit-lower triangular solve over the
            // panel's rows, right-hand sides in columns k1..n.
            for col in k0..k1 - 1 {
                let (head, tail) = s.split_at_mut((col + 1) * n);
                let ucol = &head[col * n + k1..col * n + n];
                for row in tail.chunks_exact_mut(n).take(k1 - col - 1) {
                    let l = row[col];
                    if l == Complex64::ZERO {
                        continue;
                    }
                    for (o, &u) in row[k1..n].iter_mut().zip(ucol.iter()) {
                        *o = o.mul_add(-l, u);
                    }
                }
            }
            // Trailing update A22 −= L21·U12. L21 is copied into a pooled
            // contiguous panel: the GEMM reads it while writing A22, and
            // both live in the same rows of the factor buffer.
            let m2 = n - k1;
            let fbw = k1 - k0;
            let mut l21 = crate::workspace::take_scratch_empty(m2 * fbw);
            for i in 0..m2 {
                l21.extend_from_slice(&s[(k1 + i) * n + k0..(k1 + i) * n + k1]);
            }
            let (head, tail) = s.split_at_mut(k1 * n);
            crate::gemm::gemm_view_abc_scaled_acc_uninstrumented(
                m2,
                fbw,
                m2,
                &l21,
                fbw,
                &head[k0 * n + k1..],
                n,
                &mut tail[k1..],
                n,
                Complex64::real(-1.0),
            );
            crate::workspace::give_scratch(l21);
        }
        k0 = k1;
    }
    Ok(())
}

/// Row-block size of the blocked substitution: small enough that the
/// in-block triangular solves stay a minor fraction of the work, large
/// enough that the off-block updates are GEMM-shaped.
const SOLVE_BLOCK: usize = 16;

/// Forward/backward substitution of the packed factors into `x`, which on
/// entry holds the row-permuted right-hand side.
///
/// Blocked: the strictly-triangular bulk of both sweeps is expressed as
/// `X_block −= T_block · X_done` rank-`k` updates through the packed GEMM
/// kernel, so an `n`-rhs solve (the inverse computation RGF performs per
/// diagonal block) runs at GEMM rate instead of the scalar-loop rate; only
/// the `SOLVE_BLOCK`-wide in-block triangles remain scalar.
fn substitute_in_place(lu: &Matrix, x: &mut Matrix) {
    let n = lu.rows();
    let nrhs = x.cols();
    if n == 0 || nrhs == 0 {
        return;
    }
    let a = lu.as_slice();
    let xs = x.as_mut_slice();
    let neg = Complex64::real(-1.0);
    // Forward substitution with unit-diagonal L.
    let mut i0 = 0;
    while i0 < n {
        let ib = (n - i0).min(SOLVE_BLOCK);
        let (done, rest) = xs.split_at_mut(i0 * nrhs);
        let block = &mut rest[..ib * nrhs];
        if i0 > 0 {
            crate::gemm::gemm_view_abc_scaled_acc_uninstrumented(
                ib,
                i0,
                nrhs,
                &a[i0 * n..],
                n,
                done,
                nrhs,
                block,
                nrhs,
                neg,
            );
        }
        for i in 1..ib {
            let (head, tail) = block.split_at_mut(i * nrhs);
            let xi = &mut tail[..nrhs];
            for k in 0..i {
                let l = a[(i0 + i) * n + i0 + k];
                if l == Complex64::ZERO {
                    continue;
                }
                let xk = &head[k * nrhs..(k + 1) * nrhs];
                for (o, &v) in xi.iter_mut().zip(xk.iter()) {
                    *o = o.mul_add(-l, v);
                }
            }
        }
        i0 += ib;
    }
    // Backward substitution with U.
    let mut i1 = n;
    while i1 > 0 {
        let ib = i1.min(SOLVE_BLOCK);
        let i0 = i1 - ib;
        let (head, tail) = xs.split_at_mut(i1 * nrhs);
        let block = &mut head[i0 * nrhs..];
        if i1 < n {
            crate::gemm::gemm_view_abc_scaled_acc_uninstrumented(
                ib,
                n - i1,
                nrhs,
                &a[i0 * n + i1..],
                n,
                tail,
                nrhs,
                block,
                nrhs,
                neg,
            );
        }
        for i in (0..ib).rev() {
            let (bh, bt) = block.split_at_mut((i + 1) * nrhs);
            let xi = &mut bh[i * nrhs..];
            for k in i + 1..ib {
                let u = a[(i0 + i) * n + i0 + k];
                if u == Complex64::ZERO {
                    continue;
                }
                let xk = &bt[(k - i - 1) * nrhs..(k - i) * nrhs];
                for (o, &v) in xi.iter_mut().zip(xk.iter()) {
                    *o = o.mul_add(-u, v);
                }
            }
            let d = a[(i0 + i) * n + i0 + i].inv();
            for v in xi.iter_mut() {
                *v *= d;
            }
        }
        i1 = i0;
    }
}

impl Lu {
    /// Factor `a` (square) with partial pivoting.
    pub fn factor(a: &Matrix) -> Result<Lu, SingularMatrix> {
        assert!(a.is_square(), "LU requires a square matrix");
        let n = a.rows();
        let mut lu = a.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        factor_in_place(&mut lu, &mut piv)?;
        Ok(Lu { lu, piv })
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.lu.rows()
    }

    /// Solve `A X = B` for a dense right-hand side; `b` is `n x nrhs`.
    pub fn solve(&self, b: &Matrix) -> Matrix {
        let n = self.order();
        assert_eq!(b.rows(), n, "rhs row count mismatch");
        let nrhs = b.cols();
        flops::add_flops(8 * (n * n * nrhs) as u64);
        // Apply the row permutation.
        let mut x = Matrix::from_fn(n, nrhs, |i, j| b[(self.piv[i], j)]);
        substitute_in_place(&self.lu, &mut x);
        x
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> Complex64 {
        let n = self.order();
        // Sign of the permutation.
        let mut seen = vec![false; n];
        let mut sign = 1.0;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut len = 0usize;
            let mut i = start;
            while !seen[i] {
                seen[i] = true;
                i = self.piv[i];
                len += 1;
            }
            if len.is_multiple_of(2) {
                sign = -sign;
            }
        }
        let mut d = Complex64::real(sign);
        for i in 0..n {
            d *= self.lu[(i, i)];
        }
        d
    }
}

/// Invert a square matrix (`A^{-1}`), the operation the RGF forward pass
/// performs per diagonal block.
pub fn invert(a: &Matrix) -> Result<Matrix, SingularMatrix> {
    let lu = Lu::factor(a)?;
    Ok(lu.solve(&Matrix::identity(a.rows())))
}

/// Solve `A X = B` in one call.
pub fn solve(a: &Matrix, b: &Matrix) -> Result<Matrix, SingularMatrix> {
    Ok(Lu::factor(a)?.solve(b))
}

/// Invert a square matrix into a [`workspace`](crate::workspace)-pooled
/// result. The LU factors and pivot buffer are themselves checked out of
/// (and returned to) the calling thread's pool, so warm calls perform no
/// heap allocation. The caller owns the returned matrix and should
/// `workspace::give` it back once its contents are consumed. Numerics and
/// flop accounting are identical to [`invert`].
pub fn invert_ws(a: &Matrix) -> Result<Matrix, SingularMatrix> {
    assert!(a.is_square(), "LU requires a square matrix");
    let n = a.rows();
    let mut lu = crate::workspace::take_uninit(n, n);
    lu.copy_from(a);
    let mut piv = crate::workspace::take_idx(n);
    for (i, p) in piv.iter_mut().enumerate() {
        *p = i;
    }
    let out = factor_in_place(&mut lu, &mut piv).map(|()| {
        flops::add_flops(8 * (n * n * n) as u64);
        // Row-permuted identity as the right-hand side.
        let mut x = crate::workspace::take(n, n);
        for (i, &p) in piv.iter().enumerate() {
            x[(i, p)] = Complex64::ONE;
        }
        substitute_in_place(&lu, &mut x);
        x
    });
    crate::workspace::give(lu);
    crate::workspace::give_idx(piv);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(3)
    }

    #[test]
    fn inverse_roundtrip() {
        let mut r = rng();
        for n in [1usize, 2, 3, 5, 8, 16, 31] {
            let a = Matrix::random(n, n, &mut r);
            let inv = invert(&a).expect("random matrices are a.s. nonsingular");
            let eye = a.matmul(&inv);
            assert!(eye.max_abs_diff(&Matrix::identity(n)) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn solve_matches_inverse_multiply() {
        let mut r = rng();
        let a = Matrix::random(12, 12, &mut r);
        let b = Matrix::random(12, 4, &mut r);
        let x = solve(&a, &b).unwrap();
        let resid = &a.matmul(&x) - &b;
        assert!(resid.max_abs() < 1e-10);
    }

    #[test]
    fn singular_detected() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = c64(1.0, 0.0);
        a[(1, 1)] = c64(2.0, 0.0);
        // third row/col zero -> singular
        assert_eq!(Lu::factor(&a).unwrap_err(), SingularMatrix);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // [[0, 1], [1, 0]] requires a row swap.
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = Complex64::ONE;
        a[(1, 0)] = Complex64::ONE;
        let inv = invert(&a).unwrap();
        assert!(
            inv.max_abs_diff(&a) < 1e-14,
            "permutation is its own inverse"
        );
    }

    #[test]
    fn determinant_of_known_matrix() {
        // det([[1, 2], [3, 4]]) = -2
        let a = Matrix::from_vec(
            2,
            2,
            vec![c64(1.0, 0.0), c64(2.0, 0.0), c64(3.0, 0.0), c64(4.0, 0.0)],
        );
        let d = Lu::factor(&a).unwrap().det();
        assert!((d - c64(-2.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn det_multiplicative() {
        let mut r = rng();
        let a = Matrix::random(5, 5, &mut r);
        let b = Matrix::random(5, 5, &mut r);
        let dab = Lu::factor(&a.matmul(&b)).unwrap().det();
        let da = Lu::factor(&a).unwrap().det();
        let db = Lu::factor(&b).unwrap().det();
        assert!((dab - da * db).abs() / dab.abs().max(1.0) < 1e-9);
    }

    #[test]
    fn identity_inverse_is_identity() {
        let inv = invert(&Matrix::identity(7)).unwrap();
        assert!(inv.max_abs_diff(&Matrix::identity(7)) < 1e-14);
    }

    #[test]
    fn invert_ws_is_bit_identical_to_invert() {
        let mut r = rng();
        for n in [1usize, 3, 8, 17] {
            let a = Matrix::random(n, n, &mut r);
            let heap = invert(&a).unwrap();
            let pooled = invert_ws(&a).unwrap();
            assert_eq!(heap.as_slice(), pooled.as_slice(), "n={n}");
            crate::workspace::give(pooled);
        }
        // Singular input still reports the error (and returns its buffers).
        let z = Matrix::zeros(4, 4);
        assert_eq!(invert_ws(&z).unwrap_err(), SingularMatrix);
    }

    #[test]
    fn invert_ws_counts_the_same_flops_as_invert() {
        let mut r = rng();
        let a = Matrix::random(9, 9, &mut r);
        let (_, heap_flops) = flops::count_flops_here(|| invert(&a).unwrap());
        let (pooled, ws_flops) = flops::count_flops_here(|| invert_ws(&a).unwrap());
        assert_eq!(heap_flops, ws_flops);
        crate::workspace::give(pooled);
    }
}
