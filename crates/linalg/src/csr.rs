//! Compressed-sparse-row complex matrices.
//!
//! The Hamiltonian blocks produced by a localized-basis DFT code are sparse
//! (each orbital couples to a few dozen neighbors), so the RGF triple
//! products `F[n] @ gR[n+1] @ E[n+1]` can be evaluated along three routes
//! (§5.1.2 / Table 6): densify-then-GEMM, CSR×dense (CSRMM), or fully sparse
//! CSR×CSR (CSRGEMM). All three are implemented here. The CSRMM kernels
//! sum every output entry in the order of the dense GEMM entry they stand
//! in for, so choosing them changes the speed of an RGF solve, never its
//! bits.

use crate::complex::{c64, Complex64};
use crate::dense::Matrix;
use crate::flops;
use crate::gemm::{self, Naive, Route};
use crate::workspace;
use qt_telemetry::counters::{self, Counter};
use std::cell::RefCell;

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

thread_local! {
    /// Storage of recycled [`CsrMatrix::from_dense_pooled`] images, last
    /// recycled on top. A solve takes and returns the same few images every
    /// time, so a stack serves them in O(1) — unlike the best-fit workspace
    /// pools, whose cost grows with everything else parked there — and
    /// images never hold on to dense-block-sized workspace buffers.
    static IMAGES: RefCell<Vec<CsrMatrix>> = const { RefCell::new(Vec::new()) };
}

/// Width of a CSR kernel's register tile: the packed A panels' row count.
const LANES: usize = gemm::MR;

/// `acc ⊕ x·y` in the order of the route a CSR product follows, so that it
/// keeps the bits of the dense entry it stands in for ([`gemm::route`] on
/// the same shape): `BLOCKED` is the packed kernel's `acc + x·y` (complex
/// `Mul`, then `Add`), otherwise the naive dot's `acc.mul_add(x, y)`. Both
/// are symmetric in `x` and `y`, bit for bit.
///
/// A CSR product sums the stored entries only: every term it skips is an
/// exact `±0` product, and a sum started at `+0` is never `−0`, so on
/// finite values skipping it changes nothing. It starts a fresh `+0` sum
/// per `KC`-deep slice of the depth on the packed route (over the whole
/// depth on the naive one) and flushes every output entry once per slice,
/// stored terms or not ([`flush`]), as the packed kernel does.
#[inline(always)]
fn term<const BLOCKED: bool>(re: &mut f64, im: &mut f64, xr: f64, xi: f64, y: Complex64) {
    if BLOCKED {
        *re += xr * y.re - xi * y.im;
        *im += xr * y.im + xi * y.re;
    } else {
        *re = *re + xr * y.re - xi * y.im;
        *im = *im + xr * y.im + xi * y.re;
    }
}

/// Fold one slice's sum into an output entry, in the epilogue of the route
/// [`term`] follows: `o += acc` for the packed kernel at a scale of exactly
/// ONE, `o += acc · z` otherwise.
#[inline(always)]
fn flush<const BLOCKED: bool>(o: &mut Complex64, re: f64, im: f64, z: Complex64) {
    if BLOCKED && z == Complex64::ONE {
        o.re += re;
        o.im += im;
    } else {
        *o += c64(re, im) * z;
    }
}

/// The depth slices `(pc, kc)` a route cuts `0..k` into: `KC` deep on the
/// packed route, one slice on the naive one.
fn slices<const BLOCKED: bool>(k: usize) -> impl Iterator<Item = (usize, usize)> {
    let kc = if BLOCKED { gemm::KC } else { k.max(1) };
    (0..k).step_by(kc).map(move |pc| (pc, kc.min(k - pc)))
}

/// The part of an ascending run `idx` inside the slice `pc..pc + kc`.
#[inline(always)]
fn cut(idx: &[usize], pc: usize, kc: usize) -> std::ops::Range<usize> {
    if idx.first().is_none_or(|&p| p >= pc) && idx.last().is_none_or(|&p| p < pc + kc) {
        return 0..idx.len();
    }
    let lo = idx.partition_point(|&p| p < pc);
    lo..lo + idx[lo..].partition_point(|&p| p < pc + kc)
}

/// Depth slice `p` of a packed panel, as its `(re, im)` lanes.
#[inline(always)]
fn lanes(panel: &[f64], p: usize) -> (&[f64], &[f64]) {
    panel[2 * LANES * p..2 * LANES * (p + 1)].split_at(LANES)
}

/// `out += z · (a · op(s))`, `op(s)` = `s` or `sᴴ` when `dagger`. `a` is
/// packed into `LANES`-row panels, and per panel and depth slice one
/// `LANES`-wide sum per output column is parked in `sums` (`[re × LANES |
/// im × LANES]` per column), then flushed row by row. `a · sᴴ` takes each
/// sum in registers as a dot over row `j` of `s`; `a · s` scatters row `p`
/// of `s` into the sums, rows in ascending order.
fn dense_times_csr<const BLOCKED: bool>(
    a: &Matrix,
    s: &CsrMatrix,
    dagger: bool,
    z: Complex64,
    out: &mut Matrix,
) {
    let (m, k) = a.shape();
    let n = out.cols();
    let packed = gemm::packed_rows(a.as_slice(), m, k);
    let mut buf = gemm::take_packed(2 * LANES * n);
    let sums = &mut buf[..2 * LANES * n];
    let panels = packed[..m.next_multiple_of(LANES) * k * 2].chunks_exact(2 * LANES * k);
    for (g, panel) in panels.enumerate() {
        for (pc, kc) in slices::<BLOCKED>(k) {
            if dagger {
                for (j, sum) in sums.chunks_exact_mut(2 * LANES).enumerate() {
                    let run = s.indptr[j]..s.indptr[j + 1];
                    let live = cut(&s.indices[run.clone()], pc, kc);
                    let (mut re, mut im) = ([0.0; LANES], [0.0; LANES]);
                    for e in run.start + live.start..run.start + live.end {
                        let (xr, xi) = lanes(panel, s.indices[e]);
                        let y = s.data[e].conj();
                        for l in 0..LANES {
                            term::<BLOCKED>(&mut re[l], &mut im[l], xr[l], xi[l], y);
                        }
                    }
                    sum[..LANES].copy_from_slice(&re);
                    sum[LANES..].copy_from_slice(&im);
                }
            } else {
                sums.fill(0.0);
                for p in pc..pc + kc {
                    let (xr, xi) = lanes(panel, p);
                    for e in s.indptr[p]..s.indptr[p + 1] {
                        let (y, sum) = (s.data[e], &mut sums[2 * LANES * s.indices[e]..]);
                        let (re, im) = sum[..2 * LANES].split_at_mut(LANES);
                        for l in 0..LANES {
                            term::<BLOCKED>(&mut re[l], &mut im[l], xr[l], xi[l], y);
                        }
                    }
                }
            }
            for (l, i) in (g * LANES..(g * LANES + LANES).min(m)).enumerate() {
                for (o, sum) in out.row_mut(i).iter_mut().zip(sums.chunks_exact(2 * LANES)) {
                    flush::<BLOCKED>(o, sum[l], sum[LANES + l], z);
                }
            }
        }
    }
    gemm::give_packed(buf);
    gemm::give_packed(packed);
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

    /// Like [`CsrMatrix::from_dense`], but with its storage taken from the
    /// calling thread's stack of recycled images, so warm SCF iterations
    /// build coupling-block images without touching the allocator. The
    /// buffers are sized for the dense worst case, so the push loop can
    /// never reallocate; growing a recycled image (or starting a fresh one)
    /// counts as a workspace pool miss. Return the storage with
    /// [`CsrMatrix::recycle`] on the same thread.
    pub fn from_dense_pooled(m: &Matrix, tol: f64) -> Self {
        let (rows, cols) = m.shape();
        let recycled = IMAGES.with(|s| s.borrow_mut().pop());
        let (mut indptr, mut indices, mut data) = recycled
            .map(|r| (r.indptr, r.indices, r.data))
            .unwrap_or_default();
        if indptr.capacity() <= rows
            || indices.capacity() < rows * cols
            || data.capacity() < rows * cols
        {
            workspace::count_fresh();
        }
        indptr.clear();
        indices.clear();
        data.clear();
        indptr.reserve(rows + 1);
        indices.reserve(rows * cols);
        data.reserve(rows * cols);
        indptr.push(0);
        for i in 0..rows {
            for (j, &v) in m.row(i).iter().enumerate() {
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

    /// Return this matrix's storage to the calling thread's stack of
    /// recycled images. Pairs with [`CsrMatrix::from_dense_pooled`];
    /// harmless (the buffers simply join the stack) for heap-built
    /// matrices.
    pub fn recycle(self) {
        IMAGES.with(|s| s.borrow_mut().push(self));
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
    /// caller-owned (usually pooled) dense block, with the bits of
    /// [`gemm::gemm_acc`] on the densified `self` (see [`term`]).
    pub fn mul_dense_acc(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, b.rows(), "inner dimension mismatch");
        let n = b.cols();
        assert_eq!(out.shape(), (self.rows, n), "output shape mismatch");
        account(
            8 * self.nnz() as u64 * n as u64,
            self.storage_bytes() + C64_BYTES * ((self.nnz() + self.rows) * n) as u64,
        );
        let k = self.cols;
        if self.rows == 0 || k == 0 || n == 0 {
            return;
        }
        if let Route::Naive(_) = gemm::route((self.rows, k, n), Naive::Axpy) {
            // Row axpys straight into `out`, zero terms skipped, like the
            // dense kernel.
            for i in 0..self.rows {
                let out_row = out.row_mut(i);
                for idx in self.indptr[i]..self.indptr[i + 1] {
                    let a = self.data[idx];
                    if a == Complex64::ZERO {
                        continue;
                    }
                    for (o, &bv) in out_row.iter_mut().zip(b.row(self.indices[idx])) {
                        *o = o.mul_add(a, bv);
                    }
                }
            }
            return;
        }
        // Packed route: per slice, a `+0`-started row of sums takes one
        // `acc + v·b[p, :]` sweep per stored entry, then flushes.
        let mut buf = gemm::take_packed(2 * n);
        let (sr, si) = buf[..2 * n].split_at_mut(n);
        for i in 0..self.rows {
            let run = self.indptr[i]..self.indptr[i + 1];
            let (idx, val) = (&self.indices[run.clone()], &self.data[run]);
            for (pc, kc) in slices::<true>(k) {
                sr.fill(0.0);
                si.fill(0.0);
                for e in cut(idx, pc, kc) {
                    let lanes = sr.iter_mut().zip(si.iter_mut()).zip(b.row(idx[e]));
                    for ((re, im), x) in lanes {
                        term::<true>(re, im, x.re, x.im, val[e]);
                    }
                }
                for (o, (&re, &im)) in out.row_mut(i).iter_mut().zip(sr.iter().zip(si.iter())) {
                    flush::<true>(o, re, im, Complex64::ONE);
                }
            }
        }
        gemm::give_packed(buf);
    }

    /// Dense × sparse → dense (the "transposed dense-CSR" form of CSRMM).
    pub fn rmul_dense(&self, a: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), self.cols);
        self.rmul_dense_scaled_acc(a, Complex64::ONE, &mut out);
        out
    }

    /// `out += z · (a · self)` — dense × sparse accumulate, the
    /// right-hand CSRMM form the RGF recursions need for `X · τ`
    /// coupling products, with the bits of [`gemm::gemm_scaled_acc`] on the
    /// densified `self` (see [`term`]).
    pub fn rmul_dense_scaled_acc(&self, a: &Matrix, z: Complex64, out: &mut Matrix) {
        assert_eq!(a.cols(), self.rows, "inner dimension mismatch");
        let m = a.rows();
        assert_eq!(out.shape(), (m, self.cols), "output shape mismatch");
        account(
            8 * self.nnz() as u64 * m as u64,
            self.storage_bytes() + C64_BYTES * ((self.nnz() + self.cols) * m) as u64,
        );
        if m == 0 || self.rows == 0 || self.cols == 0 {
            return;
        }
        match gemm::route((m, self.rows, self.cols), Naive::Dot) {
            Route::Blocked => dense_times_csr::<true>(a, self, false, z, out),
            Route::Naive(_) => dense_times_csr::<false>(a, self, false, z, out),
        }
    }

    /// `out += z · (a · selfᴴ)` — dense × conjugate-transposed sparse,
    /// accumulating; covers the RGF's `X · τ†` coupling products without
    /// materializing τ†, with the bits of [`gemm::gemm_bdagger_acc`] on the
    /// densified `self` (see [`term`]).
    pub fn rmul_dagger_scaled_acc(&self, a: &Matrix, z: Complex64, out: &mut Matrix) {
        assert_eq!(a.cols(), self.cols, "inner dimension mismatch");
        let m = a.rows();
        assert_eq!(out.shape(), (m, self.rows), "output shape mismatch");
        account(
            8 * self.nnz() as u64 * m as u64,
            self.storage_bytes() + C64_BYTES * ((self.nnz() + self.rows) * m) as u64,
        );
        if m == 0 || self.rows == 0 || self.cols == 0 {
            return;
        }
        match gemm::route((m, self.cols, self.rows), Naive::Dot) {
            Route::Blocked => dense_times_csr::<true>(a, self, true, z, out),
            Route::Naive(_) => dense_times_csr::<false>(a, self, true, z, out),
        }
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
