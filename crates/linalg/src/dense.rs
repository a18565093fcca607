//! Dense row-major complex matrices.
//!
//! This is the workhorse container of the RGF solver and the SSE kernels:
//! Green's-function blocks are `Norb x Norb` … `(NA/bnum·Norb)^2` dense
//! complex matrices. The API deliberately mirrors what the paper's Python
//! reference does with `numpy.ndarray` (`@`, `+`, scalar `*`, `.conj().T`).

use crate::complex::{c64, Complex64};
use crate::gemm;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// Dense row-major matrix of [`Complex64`].
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl Matrix {
    /// `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Build from a row-major data vector (must have `rows*cols` entries).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Consume the matrix, yielding its row-major backing vector (the
    /// workspace-arena recycling path).
    pub fn into_vec(self) -> Vec<Complex64> {
        self.data
    }

    /// Overwrite `self` with `src` without allocating.
    pub fn copy_from(&mut self, src: &Matrix) {
        assert_eq!(self.shape(), src.shape());
        self.data.copy_from_slice(&src.data);
    }

    /// In-place `self -= other^dagger` without materializing the
    /// conjugate transpose (the `G> = G< + G^R − (G^R)^dagger` identity).
    pub fn sub_dagger_assign(&mut self, other: &Matrix) {
        assert_eq!(self.rows, other.cols);
        assert_eq!(self.cols, other.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                self.data[i * self.cols + j] -= other[(j, i)].conj();
            }
        }
    }

    /// Diagonal matrix from a slice.
    pub fn from_diag(diag: &[Complex64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Identity scaled by `z`.
    pub fn scaled_identity(n: usize, z: Complex64) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = z;
        }
        m
    }

    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline(always)]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    #[inline(always)]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[Complex64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [Complex64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Conjugate transpose `A^dagger` — the `A` of `G^A = (G^R)^dagger`.
    pub fn dagger(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Element-wise conjugate.
    pub fn conj(&self) -> Matrix {
        let mut out = self.clone();
        for z in out.data.iter_mut() {
            *z = z.conj();
        }
        out
    }

    /// Trace (sum of diagonal entries); requires square.
    pub fn trace(&self) -> Complex64 {
        assert!(self.is_square());
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest entry modulus.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Largest modulus of the entry-wise difference.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Scale every entry by a complex factor.
    pub fn scale(&self, z: Complex64) -> Matrix {
        let mut out = self.clone();
        for w in out.data.iter_mut() {
            *w *= z;
        }
        out
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: Complex64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = a.mul_add(alpha, *b);
        }
    }

    /// Set every entry to zero, retaining the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(Complex64::ZERO);
    }

    /// Matrix product using the blocked GEMM kernel.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        gemm::gemm(self, rhs, &mut out);
        out
    }

    /// `self @ rhs^dagger` without materializing the conjugate transpose:
    /// the GEMM packing step reads `rhs` column-wise and conjugates in
    /// flight, so `X · Y†` costs the same as `X · Y`.
    pub fn matmul_dagger(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        gemm::gemm_bdagger_acc(
            self.rows,
            self.cols,
            rhs.rows,
            self.as_slice(),
            rhs.as_slice(),
            out.as_mut_slice(),
            Complex64::ONE,
        );
        out
    }

    /// True if `‖A − A^dagger‖_max < tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in i..self.cols {
                if (self[(i, j)] - self[(j, i)].conj()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Extract the sub-matrix at (`r0`, `c0`) of shape `rows x cols`.
    pub fn submatrix(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Matrix {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols);
        Matrix::from_fn(rows, cols, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Overwrite the sub-matrix at (`r0`, `c0`) with `block`.
    pub fn set_submatrix(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(r0 + block.rows <= self.rows && c0 + block.cols <= self.cols);
        for i in 0..block.rows {
            for j in 0..block.cols {
                self[(r0 + i, c0 + j)] = block[(i, j)];
            }
        }
    }

    /// Fill with uniform random entries in the unit square (testing aid).
    pub fn random(rows: usize, cols: usize, rng: &mut impl rand::Rng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0))
        })
    }

    /// Random Hermitian matrix (testing aid).
    pub fn random_hermitian(n: usize, rng: &mut impl rand::Rng) -> Matrix {
        let a = Matrix::random(n, n, rng);
        let mut h = a.dagger();
        h.axpy(Complex64::ONE, &a);
        h.scale(c64(0.5, 0.0))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = Complex64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape());
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a += *b;
        }
        out
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape());
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a -= *b;
        }
        out
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape());
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += *b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape());
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= *b;
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl Mul<Complex64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: Complex64) -> Matrix {
        self.scale(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scale(c64(-1.0, 0.0))
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4}{:+10.4}i ", self[(i, j)].re, self[(i, j)].im)?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn identity_is_neutral() {
        let mut r = rng();
        let a = Matrix::random(5, 5, &mut r);
        let i = Matrix::identity(5);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-14);
        assert!(i.matmul(&a).max_abs_diff(&a) < 1e-14);
    }

    #[test]
    fn dagger_involution_and_product_rule() {
        let mut r = rng();
        let a = Matrix::random(4, 6, &mut r);
        let b = Matrix::random(6, 3, &mut r);
        assert!(a.dagger().dagger().max_abs_diff(&a) < 1e-15);
        // (AB)^† = B^† A^†
        let lhs = a.matmul(&b).dagger();
        let rhs = b.dagger().matmul(&a.dagger());
        assert!(lhs.max_abs_diff(&rhs) < 1e-13);
    }

    #[test]
    fn matmul_dagger_matches_materialized_dagger() {
        let mut r = rng();
        for (m, k, n) in [(4, 6, 3), (1, 5, 1), (17, 9, 23), (40, 40, 40)] {
            let a = Matrix::random(m, k, &mut r);
            let b = Matrix::random(n, k, &mut r);
            let fused = a.matmul_dagger(&b);
            let explicit = a.matmul(&b.dagger());
            assert!(fused.max_abs_diff(&explicit) < 1e-12, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn trace_cyclic() {
        let mut r = rng();
        let a = Matrix::random(5, 5, &mut r);
        let b = Matrix::random(5, 5, &mut r);
        let t1 = a.matmul(&b).trace();
        let t2 = b.matmul(&a).trace();
        assert!((t1 - t2).abs() < 1e-12);
    }

    #[test]
    fn random_hermitian_is_hermitian() {
        let mut r = rng();
        let h = Matrix::random_hermitian(8, &mut r);
        assert!(h.is_hermitian(1e-14));
    }

    #[test]
    fn submatrix_roundtrip() {
        let mut r = rng();
        let a = Matrix::random(6, 6, &mut r);
        let block = a.submatrix(2, 3, 3, 2);
        let mut b = Matrix::zeros(6, 6);
        b.set_submatrix(2, 3, &block);
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(b[(2 + i, 3 + j)], a[(2 + i, 3 + j)]);
            }
        }
    }

    #[test]
    fn axpy_matches_scale_add() {
        let mut r = rng();
        let a = Matrix::random(4, 4, &mut r);
        let b = Matrix::random(4, 4, &mut r);
        let alpha = c64(0.5, -2.0);
        let mut x = a.clone();
        x.axpy(alpha, &b);
        let expect = &a + &b.scale(alpha);
        assert!(x.max_abs_diff(&expect) < 1e-14);
    }

    #[test]
    fn matmul_associativity() {
        let mut r = rng();
        let a = Matrix::random(3, 4, &mut r);
        let b = Matrix::random(4, 5, &mut r);
        let c = Matrix::random(5, 2, &mut r);
        let lhs = a.matmul(&b).matmul(&c);
        let rhs = a.matmul(&b.matmul(&c));
        assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    #[should_panic]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
