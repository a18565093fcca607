//! Compressed-sparse-row complex matrices.
//!
//! The Hamiltonian blocks produced by a localized-basis DFT code are sparse
//! (each orbital couples to a few dozen neighbors), so the RGF triple
//! products `F[n] @ gR[n+1] @ E[n+1]` can be evaluated along three routes
//! (§5.1.2 / Table 6): densify-then-GEMM, CSR×dense (CSRMM), or fully sparse
//! CSR×CSR (CSRGEMM). All three are implemented here.

use crate::complex::Complex64;
use crate::dense::Matrix;
use crate::flops;
use crate::workspace;
use qt_telemetry::counters::{self, Counter};

/// Account a sparse-kernel operation: `f` real flops into the global flop
/// counter (same source of truth as the dense GEMMs) and into the
/// sparse-kernel telemetry shard, plus `b` streamed bytes under the
/// minimal traffic model (each operand read once, the result written
/// once).
#[inline]
fn account(f: u64, b: u64) {
    flops::add_flops(f);
    counters::add(Counter::KernelSparseFlops, f);
    counters::add(Counter::KernelSparseBytes, b);
}

/// Bytes of one dense `Complex64` element.
const C64_BYTES: u64 = 16;
/// Bytes of one CSR index / row-pointer entry.
const IDX_BYTES: u64 = 8;

/// CSR sparse matrix over [`Complex64`].
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<Complex64>,
}

impl CsrMatrix {
    /// Empty (all-zero) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Identity of order `n`.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            data: vec![Complex64::ONE; n],
        }
    }

    /// Build from triplets `(row, col, value)`; duplicate entries are summed.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        mut triplets: Vec<(usize, usize, Complex64)>,
    ) -> Self {
        triplets.sort_by_key(|&(r, c, _)| (r, c));
        let mut indptr = vec![0usize; rows + 1];
        let mut indices: Vec<usize> = Vec::with_capacity(triplets.len());
        let mut data: Vec<Complex64> = Vec::with_capacity(triplets.len());
        let mut last: Option<(usize, usize)> = None;
        for (r, c, v) in triplets {
            assert!(r < rows && c < cols, "triplet out of bounds");
            if last == Some((r, c)) {
                *data.last_mut().unwrap() += v;
            } else {
                indices.push(c);
                data.push(v);
                indptr[r + 1] += 1;
                last = Some((r, c));
            }
        }
        for r in 0..rows {
            indptr[r + 1] += indptr[r];
        }
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            data,
        }
    }

    /// Keep-predicate of the dense → CSR conversions: strict structural
    /// non-zero test when `tol == 0` (no arithmetic at all), squared-
    /// modulus compare otherwise — `hypot` per entry is pure overhead on
    /// the per-solve conversion path, and `|v| > tol ⇔ |v|² > tol²` for
    /// every representable magnitude a drop threshold cares about.
    #[inline(always)]
    fn keeps(v: Complex64, tol: f64) -> bool {
        if tol == 0.0 {
            v.re != 0.0 || v.im != 0.0
        } else {
            v.norm_sqr() > tol * tol
        }
    }

    /// Convert from dense, dropping entries with modulus `<= tol`.
    pub fn from_dense(m: &Matrix, tol: f64) -> Self {
        let (rows, cols) = m.shape();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        for i in 0..rows {
            for j in 0..cols {
                let v = m[(i, j)];
                if Self::keeps(v, tol) {
                    indices.push(j);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        let out = CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            data,
        };
        account(0, C64_BYTES * (rows * cols) as u64 + out.storage_bytes());
        out
    }

    /// Like [`CsrMatrix::from_dense`], but with all three CSR arrays
    /// checked out of the thread-local workspace pools, so warm SCF
    /// iterations build coupling-block images without touching the
    /// allocator. The buffers are sized for the dense worst case, so the
    /// push loop can never reallocate. Return the storage with
    /// [`CsrMatrix::recycle`] on the same thread.
    pub fn from_dense_pooled(m: &Matrix, tol: f64) -> Self {
        let (rows, cols) = m.shape();
        // Empty checkouts: every retained slot is pushed before it is
        // read, so the zeroing `take_*` variants would memset worst-case
        // dense storage only to clear it again.
        let mut data = workspace::take_scratch_empty(rows * cols);
        let mut indices = workspace::take_idx_empty(rows * cols);
        let mut indptr = workspace::take_idx_empty(rows + 1);
        indptr.push(0);
        for i in 0..rows {
            for j in 0..cols {
                let v = m[(i, j)];
                if Self::keeps(v, tol) {
                    indices.push(j);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        let out = CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            data,
        };
        account(0, C64_BYTES * (rows * cols) as u64 + out.storage_bytes());
        out
    }

    /// Return this matrix's storage to the calling thread's workspace
    /// pools. Pairs with [`CsrMatrix::from_dense_pooled`]; harmless (the
    /// buffers simply join the pools) for heap-built matrices.
    pub fn recycle(self) {
        workspace::give_scratch(self.data);
        workspace::give_idx(self.indices);
        workspace::give_idx(self.indptr);
    }

    /// Convert to dense. Counted as the memory traffic of a densification.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for idx in self.indptr[i]..self.indptr[i + 1] {
                m[(i, self.indices[idx])] = self.data[idx];
            }
        }
        account(
            0,
            self.storage_bytes() + C64_BYTES * (self.rows * self.cols) as u64,
        );
        m
    }

    /// Bytes of the CSR storage itself: one complex value per stored
    /// entry, one column index per entry, one row pointer per row.
    pub fn storage_bytes(&self) -> u64 {
        (C64_BYTES + IDX_BYTES) * self.nnz() as u64 + IDX_BYTES * (self.rows + 1) as u64
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structural) non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Fraction of non-zero entries.
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// Occupancy list of the stored rows, flattened as `(row, start, end)`
    /// triples in a pooled index buffer (return it with
    /// [`workspace::give_idx`]). The dense×CSR kernels iterate this per
    /// dense row, so at low density the inner loops touch only the rows
    /// that exist instead of probing `indptr` across the whole order.
    fn occupied_rows(&self) -> Vec<usize> {
        let mut occ = workspace::take_idx_empty(3 * self.rows);
        for k in 0..self.rows {
            let (s, e) = (self.indptr[k], self.indptr[k + 1]);
            if s != e {
                occ.push(k);
                occ.push(s);
                occ.push(e);
            }
        }
        occ
    }

    /// Iterate `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Complex64)> + '_ {
        (0..self.rows).flat_map(move |i| {
            (self.indptr[i]..self.indptr[i + 1])
                .map(move |idx| (i, self.indices[idx], self.data[idx]))
        })
    }

    /// Sparse × dense → dense (`CSRMM` forward form).
    pub fn mul_dense(&self, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, b.cols());
        self.mul_dense_acc(b, &mut out);
        out
    }

    /// `out += self · b` — the CSRMM forward form, accumulating into a
    /// caller-owned (usually pooled) dense block.
    pub fn mul_dense_acc(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, b.rows(), "inner dimension mismatch");
        let n = b.cols();
        assert_eq!(out.shape(), (self.rows, n), "output shape mismatch");
        account(
            8 * self.nnz() as u64 * n as u64,
            self.storage_bytes() + C64_BYTES * ((self.nnz() + self.rows) * n) as u64,
        );
        for i in 0..self.rows {
            let out_row = out.row_mut(i);
            for idx in self.indptr[i]..self.indptr[i + 1] {
                let a = self.data[idx];
                let b_row = b.row(self.indices[idx]);
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o = o.mul_add(a, bv);
                }
            }
        }
    }

    /// Dense × sparse → dense (the "transposed dense-CSR" form of CSRMM).
    pub fn rmul_dense(&self, a: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), self.cols);
        self.rmul_dense_scaled_acc(a, Complex64::ONE, &mut out);
        out
    }

    /// `out += z · (a · self)` — dense × sparse accumulate, the
    /// right-hand CSRMM form the RGF recursions need for `X · τ`
    /// coupling products (with `z = ±1`).
    pub fn rmul_dense_scaled_acc(&self, a: &Matrix, z: Complex64, out: &mut Matrix) {
        assert_eq!(a.cols(), self.rows, "inner dimension mismatch");
        let m = a.rows();
        assert_eq!(out.shape(), (m, self.cols), "output shape mismatch");
        account(
            8 * self.nnz() as u64 * m as u64,
            self.storage_bytes() + C64_BYTES * ((self.nnz() + self.cols) * m) as u64,
        );
        // Row-contiguous: for each row of `a`, both the `a` reads and the
        // scattered `out` updates stay inside one cached row. The stored
        // rows are compacted into an occupancy list once, so the hot loop
        // never probes `indptr` for the (at low density, many) empty rows.
        let occ = self.occupied_rows();
        for i in 0..m {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for t in occ.chunks_exact(3) {
                let av = a_row[t[0]];
                if av == Complex64::ZERO {
                    continue;
                }
                let avz = av * z;
                for idx in t[1]..t[2] {
                    let o = &mut out_row[self.indices[idx]];
                    *o = o.mul_add(avz, self.data[idx]);
                }
            }
        }
        workspace::give_idx(occ);
    }

    /// `out += z · (a · selfᴴ)` — dense × conjugate-transposed sparse,
    /// accumulating; covers the RGF's `X · τ†` coupling products without
    /// materializing τ†. `selfᴴ[k, j] = conj(self[j, k])`, so each stored
    /// row `j` of `self` contributes one column `j` of the product.
    pub fn rmul_dagger_scaled_acc(&self, a: &Matrix, z: Complex64, out: &mut Matrix) {
        assert_eq!(a.cols(), self.cols, "inner dimension mismatch");
        let m = a.rows();
        assert_eq!(out.shape(), (m, self.rows), "output shape mismatch");
        account(
            8 * self.nnz() as u64 * m as u64,
            self.storage_bytes() + C64_BYTES * ((self.nnz() + self.rows) * m) as u64,
        );
        // Dot-product form, row-contiguous in both operands: stored row `j`
        // of `self` is column `j` of `selfᴴ`, so `out[i, j]` is a gather-dot
        // of `a`'s row `i` against that row's indices — no column-strided
        // walks over `a` or `out`, and the per-entry accumulator folds in
        // with a single scaled add (the blocked GEMM epilogue order). The
        // compacted occupancy list keeps the hot loop off the empty rows.
        let occ = self.occupied_rows();
        for i in 0..m {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for t in occ.chunks_exact(3) {
                let mut acc = Complex64::ZERO;
                for idx in t[1]..t[2] {
                    acc = acc.mul_add(a_row[self.indices[idx]], self.data[idx].conj());
                }
                out_row[t[0]] += acc * z;
            }
        }
        workspace::give_idx(occ);
    }

    /// Sparse × sparse → sparse (Gustavson's algorithm, `CSRGEMM`). The
    /// per-row accumulator, occupancy markers and touch list come from
    /// the thread-local workspace pools; only the result allocates.
    pub fn mul_csr(&self, b: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.cols, b.rows, "inner dimension mismatch");
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        // Dense accumulator row with occupancy markers. The pooled marker
        // buffer arrives zeroed, so occupancy for row `i` is `i + 1`.
        let mut acc = workspace::take_scratch(b.cols);
        let mut marker = workspace::take_idx(b.cols);
        let mut touched = workspace::take_idx(b.cols);
        touched.clear();
        let mut muladds: u64 = 0;
        for i in 0..self.rows {
            touched.clear();
            for idx in self.indptr[i]..self.indptr[i + 1] {
                let a = self.data[idx];
                let k = self.indices[idx];
                for bidx in b.indptr[k]..b.indptr[k + 1] {
                    let j = b.indices[bidx];
                    muladds += 1;
                    if marker[j] != i + 1 {
                        marker[j] = i + 1;
                        acc[j] = a * b.data[bidx];
                        touched.push(j);
                    } else {
                        acc[j] = acc[j].mul_add(a, b.data[bidx]);
                    }
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                indices.push(j);
                data.push(acc[j]);
            }
            indptr.push(indices.len());
        }
        workspace::give_scratch(acc);
        workspace::give_idx(marker);
        workspace::give_idx(touched);
        let out = CsrMatrix {
            rows: self.rows,
            cols: b.cols,
            indptr,
            indices,
            data,
        };
        account(
            8 * muladds,
            self.storage_bytes() + b.storage_bytes() + out.storage_bytes(),
        );
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &j in &self.indices {
            counts[j + 1] += 1;
        }
        for j in 0..self.cols {
            counts[j + 1] += counts[j];
        }
        let indptr = counts.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut data = vec![Complex64::ZERO; self.nnz()];
        let mut next = counts;
        for (i, j, v) in self.iter() {
            let pos = next[j];
            indices[pos] = i;
            data[pos] = v;
            next[j] += 1;
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            data,
        }
    }

    /// Sparse matrix-vector product.
    pub fn matvec(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.cols);
        account(
            8 * self.nnz() as u64,
            self.storage_bytes() + C64_BYTES * (self.cols + self.rows) as u64,
        );
        let mut y = vec![Complex64::ZERO; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = Complex64::ZERO;
            for idx in self.indptr[i]..self.indptr[i + 1] {
                acc = acc.mul_add(self.data[idx], x[self.indices[idx]]);
            }
            *yi = acc;
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use rand::{Rng, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    fn random_sparse(rows: usize, cols: usize, density: f64, r: &mut impl Rng) -> CsrMatrix {
        let dense = Matrix::from_fn(rows, cols, |_, _| {
            if r.random_range(0.0..1.0) < density {
                c64(r.random_range(-1.0..1.0), r.random_range(-1.0..1.0))
            } else {
                Complex64::ZERO
            }
        });
        CsrMatrix::from_dense(&dense, 0.0)
    }

    #[test]
    fn dense_roundtrip() {
        let mut r = rng();
        let s = random_sparse(9, 7, 0.3, &mut r);
        let back = CsrMatrix::from_dense(&s.to_dense(), 0.0);
        assert_eq!(s, back);
    }

    #[test]
    fn spmm_matches_dense() {
        let mut r = rng();
        let s = random_sparse(8, 6, 0.4, &mut r);
        let b = Matrix::random(6, 5, &mut r);
        let got = s.mul_dense(&b);
        let expect = s.to_dense().matmul(&b);
        assert!(got.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn rmul_matches_dense() {
        let mut r = rng();
        let s = random_sparse(6, 8, 0.4, &mut r);
        let a = Matrix::random(5, 6, &mut r);
        let got = s.rmul_dense(&a);
        let expect = a.matmul(&s.to_dense());
        assert!(got.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn spgemm_matches_dense() {
        let mut r = rng();
        let a = random_sparse(7, 9, 0.35, &mut r);
        let b = random_sparse(9, 4, 0.35, &mut r);
        let got = a.mul_csr(&b).to_dense();
        let expect = a.to_dense().matmul(&b.to_dense());
        assert!(got.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let mut r = rng();
        let s = random_sparse(6, 9, 0.3, &mut r);
        let got = s.transpose().to_dense();
        let expect = s.to_dense().transpose();
        assert!(got.max_abs_diff(&expect) < 1e-14);
    }

    #[test]
    fn identity_behaves() {
        let mut r = rng();
        let s = random_sparse(5, 5, 0.5, &mut r);
        let i = CsrMatrix::identity(5);
        assert!(i.mul_csr(&s).to_dense().max_abs_diff(&s.to_dense()) < 1e-15);
        assert!(s.mul_csr(&i).to_dense().max_abs_diff(&s.to_dense()) < 1e-15);
    }

    #[test]
    fn matvec_matches_dense() {
        let mut r = rng();
        let s = random_sparse(6, 6, 0.5, &mut r);
        let x: Vec<_> = (0..6)
            .map(|_| c64(r.random_range(-1.0..1.0), 0.3))
            .collect();
        let y = s.matvec(&x);
        let d = s.to_dense();
        for i in 0..6 {
            let expect: Complex64 = (0..6).map(|j| d[(i, j)] * x[j]).sum();
            assert!((y[i] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn triplets_sum_duplicates() {
        let t = vec![
            (0, 0, c64(1.0, 0.0)),
            (0, 0, c64(2.0, 0.0)),
            (1, 1, c64(3.0, 0.0)),
        ];
        let s = CsrMatrix::from_triplets(2, 2, t);
        let d = s.to_dense();
        assert!((d[(0, 0)] - c64(3.0, 0.0)).abs() < 1e-15);
        assert!((d[(1, 1)] - c64(3.0, 0.0)).abs() < 1e-15);
    }

    #[test]
    fn empty_rows_handled() {
        let t = vec![(3, 1, c64(1.0, 0.0))];
        let s = CsrMatrix::from_triplets(5, 3, t);
        assert_eq!(s.nnz(), 1);
        let d = s.to_dense();
        assert_eq!(d[(3, 1)], c64(1.0, 0.0));
    }

    #[test]
    fn density_and_nnz() {
        let s = CsrMatrix::identity(10);
        assert_eq!(s.nnz(), 10);
        assert!((s.density() - 0.1).abs() < 1e-15);
    }

    #[test]
    fn accumulate_forms_match_dense_references() {
        let mut r = rng();
        let s = random_sparse(7, 5, 0.4, &mut r);
        let a = Matrix::random(6, 7, &mut r);
        let b = Matrix::random(5, 4, &mut r);
        let z = c64(-1.0, 0.5);

        // out starts non-zero so the accumulate semantics are exercised.
        let mut out = Matrix::random(7, 4, &mut r);
        let mut expect = out.clone();
        s.mul_dense_acc(&b, &mut out);
        expect.axpy(Complex64::ONE, &s.to_dense().matmul(&b));
        assert!(out.max_abs_diff(&expect) < 1e-12);

        let mut out = Matrix::random(6, 5, &mut r);
        let mut expect = out.clone();
        s.rmul_dense_scaled_acc(&a, z, &mut out);
        expect.axpy(z, &a.matmul(&s.to_dense()));
        assert!(out.max_abs_diff(&expect) < 1e-12);

        let a2 = Matrix::random(6, 5, &mut r);
        let mut out = Matrix::random(6, 7, &mut r);
        let mut expect = out.clone();
        s.rmul_dagger_scaled_acc(&a2, z, &mut out);
        expect.axpy(z, &a2.matmul(&s.to_dense().dagger()));
        assert!(out.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn pooled_conversion_roundtrips_and_recycles() {
        let mut r = rng();
        let dense = Matrix::from_fn(9, 9, |_, _| {
            if r.random_range(0.0..1.0) < 0.25 {
                c64(r.random_range(-1.0..1.0), r.random_range(-1.0..1.0))
            } else {
                Complex64::ZERO
            }
        });
        let heap = CsrMatrix::from_dense(&dense, 0.0);
        // Warm the pools, then assert the second conversion is a pure
        // pool hit.
        CsrMatrix::from_dense_pooled(&dense, 0.0).recycle();
        let fresh0 = workspace::fresh_here();
        let pooled = CsrMatrix::from_dense_pooled(&dense, 0.0);
        assert_eq!(workspace::fresh_here(), fresh0, "warm conversion allocated");
        assert_eq!(pooled, heap);
        pooled.recycle();
    }

    #[test]
    fn sparse_ops_feed_kernel_telemetry() {
        let flops = || counters::total(Counter::KernelSparseFlops);
        let bytes = || counters::total(Counter::KernelSparseBytes);
        let mut r = rng();
        let s = random_sparse(8, 8, 0.5, &mut r);
        let b = Matrix::random(8, 8, &mut r);
        let (f0, b0) = (flops(), bytes());
        let _ = s.mul_dense(&b);
        let n = s.nnz() as u64;
        assert!(flops() - f0 >= 8 * n * 8);
        assert!(bytes() - b0 >= s.storage_bytes());
        let f1 = flops();
        let _ = s.mul_csr(&s);
        assert!(flops() > f1);
        let f2 = flops();
        let x = vec![Complex64::ONE; 8];
        let _ = s.matvec(&x);
        assert!(flops() - f2 >= 8 * n);
    }
}
