//! Recursive Green's Function solver (§2, ref. \[23\] Svizhenko et al.).
//!
//! Given the block tri-diagonal `A = z·S − H − Σᴿ` and block-diagonal
//! lesser self-energy `Σ<`, RGF computes the diagonal (and first
//! sub-diagonal) blocks of
//!
//! * `Gᴿ = A⁻¹`
//! * `G< = Gᴿ Σ< Gᴿ†`
//! * `G> = G< + Gᴿ − Gᴿ†`
//!
//! in `O(bnum · bs³)` instead of dense `O((bnum·bs)³)`. The recursions are
//! the standard left-connected forward pass plus the exact backward-pass
//! identities (derived and unit-verified against dense inversion):
//!
//! ```text
//! forward:  gᴿ_n = (A_nn − A_{n,n−1} gᴿ_{n−1} A_{n−1,n})⁻¹
//!           g<_n = gᴿ_n (Σ<_nn + A_{n,n−1} g<_{n−1} A_{n,n−1}†) gᴿ_n†
//! backward: Gᴿ_nn   = gᴿ_n + gᴿ_n A_{n,n+1} Gᴿ_{n+1,n+1} A_{n+1,n} gᴿ_n
//!           G<_nn   = g<_n + gᴿ_n A_{n,n+1} G<_{n+1,n+1} A_{n,n+1}† gᴿ_n†
//!                   + gᴿ_n A_{n,n+1} Gᴿ_{n+1,n+1} A_{n+1,n} g<_n
//!                   + g<_n A_{n+1,n}† Gᴿ_{n+1,n+1}† A_{n,n+1}† gᴿ_n†
//!           Gᴿ_{n+1,n} = −Gᴿ_{n+1,n+1} A_{n+1,n} gᴿ_n
//!           G<_{n+1,n} = −Gᴿ_{n+1,n+1} A_{n+1,n} g<_n − G<_{n+1,n+1} A_{n,n+1}† gᴿ_n†
//! ```
//!
//! Every product runs at the coupling's support, and no choice below moves
//! a bit of the output:
//!
//! * **Coupling legs** (`X·A`, `X·A†`, `A·X`) run as dense GEMM or through
//!   the CSR kernels, per [`MultiplyStrategy`]. The CSR kernels sum each
//!   output entry in the order of the dense entry they stand in for
//!   ([`qt_linalg::gemm::route`]), so strategies differ in speed, never in
//!   bits.
//! * **Backward products** whose left operand is a leg's output sum only
//!   over the coupling's support. `X·A` is exact `+0` outside `cols(A)`
//!   and `X·A†` outside `rows(A)` under every strategy, and a skipped
//!   `±0` term leaves a `+0`-started sum unchanged, so the nine such
//!   products (`t1g`, `t3` over `cols(A_{n,n+1})`; `t2·gᴿ`, `t2·g<`, and
//!   both `w1` products over `cols(A_{n+1,n})`; `v2` over `rows(A_{n+1,n})`;
//!   the two `·gᴿ_n†` products over `rows(A_{n,n+1})`) go through the
//!   `_over` GEMM entries with index lists built once per solve.

use qt_linalg::gemm::{
    gemm_acc, gemm_acc_over, gemm_bdagger_acc, gemm_bdagger_acc_over, gemm_scaled_acc,
    gemm_scaled_acc_over,
};
use qt_linalg::{
    c64, invert, invert_ws, workspace, BlockTridiag, Complex64, CsrMatrix, Matrix, SingularMatrix,
};

/// How the coupling legs of the recursions are evaluated (the Table 6
/// design space, §5.1.2). Both strategies give the same output bits; they
/// differ in speed only. The GF phases default to `Csrmm`
/// ([`crate::gf::GfConfig`]); [`rgf`] keeps dense legs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MultiplyStrategy {
    /// Densify everything and use plain GEMM (Table 6 "Dense-MM").
    Dense,
    /// Exploit the sparsity of the Hamiltonian coupling blocks:
    /// `CSR × dense` followed by `dense × CSR` (Table 6 "CSRMM", the
    /// paper's fastest route). Off-diagonal `A` blocks are converted to
    /// CSR once per solve, keeping every entry that is not an exact zero.
    Csrmm,
}

/// A stateless unit struct: a coupling's route is a function of the
/// strategy and the block alone (`CouplingKernel::of`), so there is no
/// choice to remember. Kept for `qt-perf`, which pins the selector
/// argument of the `_cached` GF phases; they ignore it.
#[derive(Debug, Default)]
pub struct KernelSelector;

/// The per-coupling execution plan: either keep the pair of off-diagonal
/// blocks dense, or carry pooled CSR images of `A_{n+1,n}` / `A_{n,n+1}`.
enum CouplingKernel {
    Dense,
    Sparse { lo: CsrMatrix, up: CsrMatrix },
}

impl CouplingKernel {
    /// The route of the coupling pair `lo = A_{n+1,n}`, `up = A_{n,n+1}`
    /// under `strategy`. It remembers nothing, so every solve of a phase
    /// routes a coupling the same way on whatever thread it runs: `Csrmm`
    /// sends every coupling through the CSR kernels, `Dense` none.
    fn of(strategy: MultiplyStrategy, lo: &Matrix, up: &Matrix) -> CouplingKernel {
        match strategy {
            MultiplyStrategy::Dense => CouplingKernel::Dense,
            MultiplyStrategy::Csrmm => CouplingKernel::Sparse {
                lo: CsrMatrix::from_dense_pooled(lo, 0.0),
                up: CsrMatrix::from_dense_pooled(up, 0.0),
            },
        }
    }

    fn lo_sp(&self) -> Option<&CsrMatrix> {
        match self {
            CouplingKernel::Dense => None,
            CouplingKernel::Sparse { lo, .. } => Some(lo),
        }
    }

    fn up_sp(&self) -> Option<&CsrMatrix> {
        match self {
            CouplingKernel::Dense => None,
            CouplingKernel::Sparse { up, .. } => Some(up),
        }
    }
}

/// The structural support of one coupling pair, ascending: the rows and
/// columns of `A_{n,n+1}` (`up`) and `A_{n+1,n}` (`lo`) holding a nonzero
/// (the test `CsrMatrix::from_dense(.., 0.0)` keeps an entry by), as
/// `[up rows | up cols | lo rows | lo cols]` in one pooled index buffer. A
/// coupling leg's output is exact `+0` outside them under every strategy,
/// so the backward products that read one as their left operand sum over
/// these lists only.
struct Support {
    idx: Vec<usize>,
    /// End of each of the four lists in `idx`.
    ends: [usize; 4],
}

impl Support {
    fn of(up: &Matrix, lo: &Matrix) -> Support {
        let (r, c) = up.shape();
        let mut idx = workspace::take_idx_empty(2 * (r + c));
        let mut ends = [0; 4];
        for (m, e) in [up, lo].into_iter().zip(ends.chunks_exact_mut(2)) {
            let nonzero = |i: usize, j: usize| m[(i, j)].re != 0.0 || m[(i, j)].im != 0.0;
            idx.extend((0..r).filter(|&i| (0..c).any(|j| nonzero(i, j))));
            e[0] = idx.len();
            idx.extend((0..c).filter(|&j| (0..r).any(|i| nonzero(i, j))));
            e[1] = idx.len();
        }
        Support { idx, ends }
    }

    fn list(&self, k: usize) -> &[usize] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.idx[start..self.ends[k]]
    }

    fn up_rows(&self) -> &[usize] {
        self.list(0)
    }

    fn up_cols(&self) -> &[usize] {
        self.list(1)
    }

    fn lo_rows(&self) -> &[usize] {
        self.list(2)
    }

    fn lo_cols(&self) -> &[usize] {
        self.list(3)
    }
}

/// The index sets a lead's Sancho–Rubio decimation keeps
/// (`boundary::decimate`), from the support of its couplings `α` (toward
/// the chain) and `β` (back): `R = rows(α) ∪ cols(β)` and
/// `C = cols(α) ∪ rows(β)`, ascending. Every `α_n` lives on `R × C` and
/// every `β_n` on `C × R`.
pub(crate) fn lead_support(alpha: &Matrix, beta: &Matrix) -> (Vec<usize>, Vec<usize>) {
    let sup = Support::of(alpha, beta);
    let union = |x: &[usize], y: &[usize]| {
        let mut u: Vec<usize> = x.iter().chain(y).copied().collect();
        u.sort_unstable();
        u.dedup();
        u
    };
    let r = union(sup.up_rows(), sup.lo_cols());
    let c = union(sup.up_cols(), sup.lo_rows());
    workspace::give_idx(sup.idx);
    (r, c)
}

/// `out += K·b` — coupling block times dense, CSRMM when routed sparse.
fn mul_coupling(sp: Option<&CsrMatrix>, k: &Matrix, b: &Matrix, out: &mut Matrix) {
    match sp {
        Some(s) => s.mul_dense_acc(b, out),
        None => gemm_acc(k, b, out),
    }
}

/// `out += z·(a·K)` — dense times coupling block.
fn rmul_coupling(
    sp: Option<&CsrMatrix>,
    bs: usize,
    a: &Matrix,
    k: &Matrix,
    z: Complex64,
    out: &mut Matrix,
) {
    match sp {
        Some(s) => s.rmul_dense_scaled_acc(a, z, out),
        None => gemm_scaled_acc(
            bs,
            bs,
            bs,
            a.as_slice(),
            k.as_slice(),
            out.as_mut_slice(),
            z,
        ),
    }
}

/// `out += z·(a·K†)` — dense times the adjoint of a coupling block.
fn rmul_dagger_coupling(
    sp: Option<&CsrMatrix>,
    bs: usize,
    a: &Matrix,
    k: &Matrix,
    z: Complex64,
    out: &mut Matrix,
) {
    match sp {
        Some(s) => s.rmul_dagger_scaled_acc(a, z, out),
        None => gemm_bdagger_acc(
            bs,
            bs,
            bs,
            a.as_slice(),
            k.as_slice(),
            out.as_mut_slice(),
            z,
        ),
    }
}

/// Diagonal and first-subdiagonal Green's-function blocks.
#[derive(Clone, Debug)]
pub struct RgfOutput {
    /// `Gᴿ_nn` for every block.
    pub gr_diag: Vec<Matrix>,
    /// `G<_nn`.
    pub gl_diag: Vec<Matrix>,
    /// `G>_nn`.
    pub gg_diag: Vec<Matrix>,
    /// `Gᴿ_{n+1,n}` (length `bnum − 1`).
    pub gr_lower: Vec<Matrix>,
    /// `Gᴿ_{n,n+1}`.
    pub gr_upper: Vec<Matrix>,
    /// `G<_{n+1,n}`.
    pub gl_lower: Vec<Matrix>,
}

impl RgfOutput {
    /// `G<_{n,n+1}` from anti-Hermiticity: `G<_{n,n+1} = −(G<_{n+1,n})†`.
    pub fn gl_upper(&self, n: usize) -> Matrix {
        self.gl_lower[n].dagger().scale(qt_linalg::c64(-1.0, 0.0))
    }

    /// True when every output block is finite (no NaN, no ±Inf) — the
    /// phase-boundary health check the GF phases run before letting RGF
    /// output flow into the SSE convolutions.
    pub fn is_finite(&self) -> bool {
        [
            &self.gr_diag,
            &self.gl_diag,
            &self.gg_diag,
            &self.gr_lower,
            &self.gr_upper,
            &self.gl_lower,
        ]
        .into_iter()
        .flatten()
        .all(|m| {
            m.as_slice()
                .iter()
                .all(|z| z.re.is_finite() && z.im.is_finite())
        })
    }

    /// The first output block whose bits differ from `other`'s, named like
    /// `"gl_diag[2]"`; `None` when every entry of every block is `to_bits`
    /// equal. What the multiply strategies are held to.
    pub fn bit_difference(&self, other: &RgfOutput) -> Option<String> {
        fn blocks(o: &RgfOutput) -> [(&'static str, &[Matrix]); 6] {
            [
                ("gr_diag", &o.gr_diag),
                ("gl_diag", &o.gl_diag),
                ("gg_diag", &o.gg_diag),
                ("gr_lower", &o.gr_lower),
                ("gr_upper", &o.gr_upper),
                ("gl_lower", &o.gl_lower),
            ]
        }
        let same = |x: &Matrix, y: &Matrix| {
            x.shape() == y.shape()
                && x.as_slice().iter().zip(y.as_slice()).all(|(p, q)| {
                    p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits()
                })
        };
        for ((name, xs), (_, ys)) in blocks(self).into_iter().zip(blocks(other)) {
            if xs.len() != ys.len() {
                return Some(format!("{name} (block count)"));
            }
            if let Some(n) = xs.iter().zip(ys).position(|(x, y)| !same(x, y)) {
                return Some(format!("{name}[{n}]"));
            }
        }
        None
    }

    /// Return every block to the calling thread's workspace pool. The
    /// Green's-function phases call this once a point's output has been
    /// consumed, so the next (E, kz) point on this worker re-uses the same
    /// buffers instead of round-tripping through the global allocator.
    pub fn recycle(self) {
        for m in self
            .gr_diag
            .into_iter()
            .chain(self.gl_diag)
            .chain(self.gg_diag)
            .chain(self.gr_lower)
            .chain(self.gr_upper)
            .chain(self.gl_lower)
        {
            workspace::give(m);
        }
    }
}

/// Run RGF with dense coupling legs. `a` is the full
/// `z·S − H − Σᴿ` block tri-diagonal; `sigma_lesser[n]` the lesser
/// self-energy of block `n` (boundary + scattering contributions already
/// summed).
pub fn rgf(a: &BlockTridiag, sigma_lesser: &[Matrix]) -> Result<RgfOutput, SingularMatrix> {
    rgf_with(a, sigma_lesser, MultiplyStrategy::Dense)
}

/// Run RGF with an off-diagonal multiply strategy (Table 6). Each
/// coupling's route comes from `CouplingKernel::of`; the output bits are
/// the same under either strategy.
pub fn rgf_with(
    a: &BlockTridiag,
    sigma_lesser: &[Matrix],
    strategy: MultiplyStrategy,
) -> Result<RgfOutput, SingularMatrix> {
    // Thread-local attribution: RGF runs inside the per-(kz, E) tasks of
    // the GF phase, so the phase aggregates busy time across threads.
    let _span = qt_telemetry::Span::enter("rgf");
    let nb = a.num_blocks();
    assert_eq!(sigma_lesser.len(), nb, "one Σ< block per RGF block");
    let bs = a.block_size();
    // Per-coupling execution plan. The sparse routes carry pooled CSR
    // images of the coupling blocks, built once per solve and recycled at
    // the end, so warm iterations never touch the global allocator.
    let plan: Vec<CouplingKernel> = (0..nb.saturating_sub(1))
        .map(|n| CouplingKernel::of(strategy, a.lower(n), a.upper(n)))
        .collect();
    let neg = c64(-1.0, 0.0);
    let one = c64(1.0, 0.0);
    // Forward pass: left-connected g's. Every temporary (and the retained
    // g's themselves) is checked out of the per-thread workspace pool, so a
    // warm SCF iteration performs zero heap allocations here.
    let mut g_r: Vec<Matrix> = Vec::with_capacity(nb);
    let mut g_l: Vec<Matrix> = Vec::with_capacity(nb);
    for n in 0..nb {
        let mut m = workspace::take_uninit(bs, bs);
        m.copy_from(a.diag(n));
        let mut sig = workspace::take_uninit(bs, bs);
        sig.copy_from(&sigma_lesser[n]);
        if n > 0 {
            // A_{n,n−1} couples block n−1 into n; the triple product
            // `A_{n,n−1} · gᴿ_{n−1} · A_{n−1,n}` is the Table 6 operation.
            let kern = &plan[n - 1];
            let tau = a.lower(n - 1);
            let mut tg = workspace::take(bs, bs);
            mul_coupling(kern.lo_sp(), tau, &g_r[n - 1], &mut tg);
            rmul_coupling(kern.up_sp(), bs, &tg, a.upper(n - 1), neg, &mut m);
            let mut tl = workspace::take(bs, bs);
            mul_coupling(kern.lo_sp(), tau, &g_l[n - 1], &mut tl);
            rmul_dagger_coupling(kern.lo_sp(), bs, &tl, tau, one, &mut sig);
            workspace::give(tg);
            workspace::give(tl);
        }
        let gr = invert_ws(&m)?;
        workspace::give(m);
        let mut t = workspace::take(bs, bs);
        gemm_acc(&gr, &sig, &mut t);
        let mut gl = workspace::take(bs, bs);
        gemm_bdagger_acc(
            bs,
            bs,
            bs,
            t.as_slice(),
            gr.as_slice(),
            gl.as_mut_slice(),
            one,
        );
        workspace::give(t);
        workspace::give(sig);
        g_r.push(gr);
        g_l.push(gl);
    }
    // Backward pass. Blocks are produced highest-index first and the
    // vectors reversed at the end — no `Matrix::zeros(0, 0)` placeholders.
    let mut gr_diag: Vec<Matrix> = Vec::with_capacity(nb);
    let mut gl_diag: Vec<Matrix> = Vec::with_capacity(nb);
    let mut gr_lower: Vec<Matrix> = Vec::with_capacity(nb - 1);
    let mut gr_upper: Vec<Matrix> = Vec::with_capacity(nb - 1);
    let mut gl_lower: Vec<Matrix> = Vec::with_capacity(nb - 1);
    let mut last_gr = workspace::take_uninit(bs, bs);
    last_gr.copy_from(&g_r[nb - 1]);
    gr_diag.push(last_gr);
    let mut last_gl = workspace::take_uninit(bs, bs);
    last_gl.copy_from(&g_l[nb - 1]);
    gl_diag.push(last_gl);
    for n in (0..nb - 1).rev() {
        let up = a.upper(n); // A_{n,n+1}
        let lo = a.lower(n); // A_{n+1,n}
        let kern = &plan[n];
        let sup = Support::of(up, lo);
        // The previous iteration's diagonal blocks are read-only here and
        // pushed-to only after their last use, so borrow them in place —
        // no pooled copies.
        let gr_next = &gr_diag[gr_diag.len() - 1];
        let gl_next = &gl_diag[gl_diag.len() - 1];
        let gr_n = &g_r[n];
        let gl_n = &g_l[n];
        // Every product below whose left operand is a coupling leg's
        // output (`X·A` has zero columns outside cols(A), `X·A†` outside
        // rows(A)) sums over that support only.
        // Shared prefixes: t1 = gᴿ_n A_{n,n+1}, t1g = t1 Gᴿ_{n+1,n+1},
        // t2 = t1g A_{n+1,n}.
        let mut t1 = workspace::take(bs, bs);
        rmul_coupling(kern.up_sp(), bs, gr_n, up, one, &mut t1);
        let mut t1g = workspace::take(bs, bs);
        gemm_acc_over(sup.up_cols(), &t1, gr_next, &mut t1g);
        let mut t2 = workspace::take(bs, bs);
        rmul_coupling(kern.lo_sp(), bs, &t1g, lo, one, &mut t2);
        // Gᴿ_nn = gᴿ_n + t2 gᴿ_n
        let mut grd = workspace::take_uninit(bs, bs);
        grd.copy_from(gr_n);
        gemm_acc_over(sup.lo_cols(), &t2, gr_n, &mut grd);
        // G<_nn — four terms, sharing t1/t2 instead of recomputing the
        // triple products.
        let mut gld = workspace::take_uninit(bs, bs);
        gld.copy_from(gl_n);
        let mut t3 = workspace::take(bs, bs);
        gemm_acc_over(sup.up_cols(), &t1, gl_next, &mut t3);
        let mut t4 = workspace::take(bs, bs);
        rmul_dagger_coupling(kern.up_sp(), bs, &t3, up, one, &mut t4);
        gemm_acc_over(sup.lo_cols(), &t2, gl_n, &mut gld);
        let mut v1 = workspace::take(bs, bs);
        rmul_dagger_coupling(kern.lo_sp(), bs, gl_n, lo, one, &mut v1);
        let mut v2 = workspace::take(bs, bs);
        gemm_bdagger_acc_over(sup.lo_rows(), &v1, gr_next, &mut v2, one);
        let mut v3 = workspace::take(bs, bs);
        rmul_dagger_coupling(kern.up_sp(), bs, &v2, up, one, &mut v3);
        // The t4 and v3 contributions to G<_nn share the right operand
        // `gᴿ_n†`; summing them first folds two GEMM units into one.
        t4 += &v3;
        gemm_bdagger_acc_over(sup.up_rows(), &t4, gr_n, &mut gld, one);
        // Off-diagonal blocks. w1 = Gᴿ_{n+1,n+1} A_{n+1,n} feeds both
        // Gᴿ_{n+1,n} and G<_{n+1,n}; Gᴿ_{n,n+1} = −t1g re-uses its buffer.
        let mut w1 = workspace::take(bs, bs);
        rmul_coupling(kern.lo_sp(), bs, gr_next, lo, one, &mut w1);
        let mut grl = workspace::take(bs, bs);
        gemm_scaled_acc_over(sup.lo_cols(), &w1, gr_n, &mut grl, neg);
        let mut gru = t1g;
        for z in gru.as_mut_slice() {
            *z = -*z;
        }
        let mut gll = workspace::take(bs, bs);
        gemm_scaled_acc_over(sup.lo_cols(), &w1, gl_n, &mut gll, neg);
        let mut x1 = workspace::take(bs, bs);
        rmul_dagger_coupling(kern.up_sp(), bs, gl_next, up, one, &mut x1);
        gemm_bdagger_acc_over(sup.up_rows(), &x1, gr_n, &mut gll, neg);
        for tmp in [t1, t2, t3, t4, v1, v2, v3, w1, x1] {
            workspace::give(tmp);
        }
        workspace::give_idx(sup.idx);
        gr_diag.push(grd);
        gl_diag.push(gld);
        gr_lower.push(grl);
        gr_upper.push(gru);
        gl_lower.push(gll);
    }
    gr_diag.reverse();
    gl_diag.reverse();
    gr_lower.reverse();
    gr_upper.reverse();
    gl_lower.reverse();
    // G> from the exact identity G> = G< + Gᴿ − Gᴬ.
    let mut gg_diag: Vec<Matrix> = Vec::with_capacity(nb);
    for (gr, gl) in gr_diag.iter().zip(&gl_diag) {
        let mut gg = workspace::take_uninit(bs, bs);
        gg.copy_from(gl);
        gg += gr;
        gg.sub_dagger_assign(gr);
        gg_diag.push(gg);
    }
    for m in g_r.into_iter().chain(g_l) {
        workspace::give(m);
    }
    for kern in plan {
        if let CouplingKernel::Sparse { lo, up } = kern {
            lo.recycle();
            up.recycle();
        }
    }
    Ok(RgfOutput {
        gr_diag,
        gl_diag,
        gg_diag,
        gr_lower,
        gr_upper,
        gl_lower,
    })
}

/// Dense reference: assemble, invert, and form `G< = Gᴿ Σ< Gᴿ†` exactly.
/// For validation and small problems only (`O(n³)` in the full order).
pub fn dense_reference(
    a: &BlockTridiag,
    sigma_lesser: &[Matrix],
) -> Result<(Matrix, Matrix), SingularMatrix> {
    let bs = a.block_size();
    let full = a.to_dense();
    let gr = invert(&full)?;
    let mut sig = Matrix::zeros(full.rows(), full.cols());
    for (n, s) in sigma_lesser.iter().enumerate() {
        sig.set_submatrix(n * bs, n * bs, s);
    }
    let gl = gr.matmul(&sig).matmul_dagger(&gr);
    Ok((gr, gl))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_linalg::{c64, Complex64};
    use qt_telemetry::counters::{self, Counter};
    use rand::{Rng as _, SeedableRng};

    /// Random non-Hermitian block tridiagonal `A` (as `E·S − H − Σᴿ` is)
    /// plus random anti-Hermitian Σ< blocks.
    fn random_problem(nb: usize, bs: usize, seed: u64) -> (BlockTridiag, Vec<Matrix>) {
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let mut a = BlockTridiag::zeros(nb, bs);
        for n in 0..nb {
            let mut d = Matrix::random(bs, bs, &mut r);
            // Diagonal dominance for well-conditioned inversion, with a
            // lossy imaginary part like a retarded operator has.
            for i in 0..bs {
                d[(i, i)] += c64(4.0, 1.0);
            }
            *a.diag_mut(n) = d;
        }
        for n in 0..nb - 1 {
            *a.upper_mut(n) = Matrix::random(bs, bs, &mut r);
            *a.lower_mut(n) = Matrix::random(bs, bs, &mut r);
        }
        let sig: Vec<Matrix> = (0..nb)
            .map(|_| {
                // Anti-Hermitian lesser self-energy: i·(positive Hermitian).
                let h = Matrix::random_hermitian(bs, &mut r);
                h.scale(Complex64::I)
            })
            .collect();
        (a, sig)
    }

    #[test]
    fn rgf_matches_dense_reference() {
        for (nb, bs, seed) in [(2, 3, 1), (4, 4, 2), (6, 5, 3), (3, 8, 4)] {
            let (a, sig) = random_problem(nb, bs, seed);
            let out = rgf(&a, &sig).unwrap();
            let (gr_dense, gl_dense) = dense_reference(&a, &sig).unwrap();
            for n in 0..nb {
                let gr_blk = gr_dense.submatrix(n * bs, n * bs, bs, bs);
                let gl_blk = gl_dense.submatrix(n * bs, n * bs, bs, bs);
                assert!(
                    out.gr_diag[n].max_abs_diff(&gr_blk) < 1e-10,
                    "GR block {n} mismatch (nb={nb}, bs={bs})"
                );
                assert!(
                    out.gl_diag[n].max_abs_diff(&gl_blk) < 1e-10,
                    "G< block {n} mismatch (nb={nb}, bs={bs})"
                );
            }
            for n in 0..nb - 1 {
                let gr_off = gr_dense.submatrix((n + 1) * bs, n * bs, bs, bs);
                let gr_up = gr_dense.submatrix(n * bs, (n + 1) * bs, bs, bs);
                let gl_off = gl_dense.submatrix((n + 1) * bs, n * bs, bs, bs);
                let gl_up = gl_dense.submatrix(n * bs, (n + 1) * bs, bs, bs);
                assert!(
                    out.gr_upper[n].max_abs_diff(&gr_up) < 1e-10,
                    "GR_{{n,n+1}} block {n} mismatch"
                );
                assert!(
                    out.gl_upper(n).max_abs_diff(&gl_up) < 1e-10,
                    "G<_{{n,n+1}} block {n} mismatch"
                );
                assert!(
                    out.gr_lower[n].max_abs_diff(&gr_off) < 1e-10,
                    "GR_{{n+1,n}} block {n} mismatch"
                );
                assert!(
                    out.gl_lower[n].max_abs_diff(&gl_off) < 1e-10,
                    "G<_{{n+1,n}} block {n} mismatch"
                );
            }
        }
    }

    #[test]
    fn greater_identity_holds() {
        let (a, sig) = random_problem(4, 4, 7);
        let out = rgf(&a, &sig).unwrap();
        for n in 0..4 {
            let mut rhs = out.gl_diag[n].clone();
            rhs += &out.gr_diag[n];
            rhs -= &out.gr_diag[n].dagger();
            assert!(out.gg_diag[n].max_abs_diff(&rhs) < 1e-12);
        }
    }

    #[test]
    fn lesser_blocks_anti_hermitian() {
        // G< must be anti-Hermitian when Σ< is.
        let (a, sig) = random_problem(5, 3, 9);
        let out = rgf(&a, &sig).unwrap();
        for gl in &out.gl_diag {
            let mut sum = gl.clone();
            sum += &gl.dagger();
            assert!(sum.max_abs() < 1e-10, "G< + G<† must vanish");
        }
    }

    #[test]
    fn single_coupling_limit() {
        // With zero couplings the blocks decouple: GR_nn = A_nn^{-1}.
        let mut r = rand::rngs::StdRng::seed_from_u64(11);
        let mut a = BlockTridiag::zeros(3, 3);
        for n in 0..3 {
            let mut d = Matrix::random(3, 3, &mut r);
            for i in 0..3 {
                d[(i, i)] += c64(3.0, 0.5);
            }
            *a.diag_mut(n) = d;
        }
        let sig: Vec<Matrix> = (0..3).map(|_| Matrix::zeros(3, 3)).collect();
        let out = rgf(&a, &sig).unwrap();
        for n in 0..3 {
            let expect = invert(a.diag(n)).unwrap();
            assert!(out.gr_diag[n].max_abs_diff(&expect) < 1e-12);
            assert!(out.gl_diag[n].max_abs() < 1e-14, "no Σ< -> no G<");
            assert!(out.gr_lower[n.min(1)].max_abs() < 1e-14);
        }
    }

    /// Every output block of two solves, `to_bits` equal.
    fn assert_same_bits(x: &RgfOutput, y: &RgfOutput, what: &str) {
        assert_eq!(x.bit_difference(y), None, "{what}");
    }

    /// A diagonally dominant `A` whose couplings hold `density` nonzeros
    /// inside random interleaved row/column supports, like the atom runs
    /// of a device slab, plus anti-Hermitian Σ< blocks.
    fn coupled_problem(
        nb: usize,
        bs: usize,
        density: f64,
        seed: u64,
    ) -> (BlockTridiag, Vec<Matrix>) {
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let (mut a, sig) = random_problem(nb, bs, seed ^ 0x5eed);
        let mut block = || {
            let rows: Vec<bool> = (0..bs).map(|_| r.random_range(0.0..1.0) < 0.5).collect();
            let cols: Vec<bool> = (0..bs).map(|_| r.random_range(0.0..1.0) < 0.5).collect();
            Matrix::from_fn(bs, bs, |i, j| {
                if rows[i] && cols[j] && r.random_range(0.0..1.0) < density {
                    c64(r.random_range(-1.0..1.0), r.random_range(-1.0..1.0))
                } else {
                    Complex64::ZERO
                }
            })
        };
        for n in 0..nb - 1 {
            *a.upper_mut(n) = block();
            *a.lower_mut(n) = block();
        }
        (a, sig)
    }

    #[test]
    fn csrmm_strategy_matches_dense() {
        // bs 4 takes the naive GEMM routes, 16 and 48 the packed kernel;
        // one fully dense coupling runs through CSR as well. The sparse
        // route must also do less work. Both strategies share the support
        // lists, so the dense inverse is the oracle that they are right.
        for (bs, seed) in [(4usize, 31u64), (16, 32), (48, 33)] {
            let nb = 5;
            let (mut a, sig) = coupled_problem(nb, bs, 0.3, seed);
            *a.upper_mut(1) = Matrix::random(bs, bs, &mut rand::rngs::StdRng::seed_from_u64(seed));
            let solve = |strategy| {
                let before = counters::local(Counter::Flops);
                let out = rgf_with(&a, &sig, strategy).unwrap();
                (out, counters::local(Counter::Flops) - before)
            };
            let (dense, f_dense) = solve(MultiplyStrategy::Dense);
            if bs <= 16 {
                let (gr, gl) = dense_reference(&a, &sig).unwrap();
                for n in 0..nb {
                    let blk = |m: &Matrix, r: usize| m.submatrix(r * bs, n * bs, bs, bs);
                    assert!(dense.gr_diag[n].max_abs_diff(&blk(&gr, n)) < 1e-10);
                    assert!(dense.gl_diag[n].max_abs_diff(&blk(&gl, n)) < 1e-10);
                    if n + 1 < nb {
                        assert!(dense.gr_lower[n].max_abs_diff(&blk(&gr, n + 1)) < 1e-10);
                        assert!(dense.gl_lower[n].max_abs_diff(&blk(&gl, n + 1)) < 1e-10);
                    }
                }
            }
            let (sparse, f_sparse) = solve(MultiplyStrategy::Csrmm);
            assert_same_bits(&dense, &sparse, &format!("csrmm, bs {bs}"));
            assert!(
                f_sparse < f_dense,
                "CSRMM must do less work on sparse couplings: {f_sparse} vs {f_dense}"
            );
        }
    }

    #[test]
    fn warm_rgf_reuses_workspace_buffers() {
        // After one solve + recycle the thread pool holds the full working
        // set; a second identical solve must not miss the pool once — on
        // the naive GEMM routes (bs 4) and on the packed one (bs 64), under
        // every strategy.
        let (a, sig) = random_problem(4, 4, 13);
        rgf(&a, &sig).unwrap().recycle();
        let before = qt_linalg::workspace::fresh_here();
        rgf(&a, &sig).unwrap().recycle();
        assert_eq!(
            qt_linalg::workspace::fresh_here(),
            before,
            "warm RGF must be allocation-free"
        );
        let (a, sig) = coupled_problem(3, 64, 0.1, 14);
        for strategy in [MultiplyStrategy::Dense, MultiplyStrategy::Csrmm] {
            rgf_with(&a, &sig, strategy).unwrap().recycle();
            let before = qt_linalg::workspace::fresh_here();
            rgf_with(&a, &sig, strategy).unwrap().recycle();
            assert_eq!(
                qt_linalg::workspace::fresh_here(),
                before,
                "warm bs-64 {strategy:?} RGF must be allocation-free"
            );
        }
    }

    #[test]
    fn warm_sparse_rgf_reuses_workspace_buffers() {
        // The pooled CSR images (and the sparse temporaries) must come out
        // of the thread workspace pool on a warm solve, exactly like the
        // dense route.
        let mut r = rand::rngs::StdRng::seed_from_u64(59);
        let (nb, bs) = (4usize, 10usize);
        let mut a = BlockTridiag::zeros(nb, bs);
        for n in 0..nb {
            let mut d = Matrix::random(bs, bs, &mut r);
            for i in 0..bs {
                d[(i, i)] += c64(4.0, 1.0);
            }
            *a.diag_mut(n) = d;
        }
        for n in 0..nb - 1 {
            let blk = |r: &mut rand::rngs::StdRng| {
                Matrix::from_fn(bs, bs, |_, _| {
                    if r.random_range(0.0..1.0) < 0.2 {
                        c64(r.random_range(-1.0..1.0), r.random_range(-1.0..1.0))
                    } else {
                        Complex64::ZERO
                    }
                })
            };
            *a.upper_mut(n) = blk(&mut r);
            *a.lower_mut(n) = blk(&mut r);
        }
        let sig: Vec<Matrix> = (0..nb)
            .map(|_| Matrix::random_hermitian(bs, &mut r).scale(Complex64::I))
            .collect();
        let strat = MultiplyStrategy::Csrmm;
        rgf_with(&a, &sig, strat).unwrap().recycle();
        let before = qt_linalg::workspace::fresh_here();
        rgf_with(&a, &sig, strat).unwrap().recycle();
        assert_eq!(
            qt_linalg::workspace::fresh_here(),
            before,
            "warm sparse RGF must be allocation-free"
        );
    }

    #[test]
    fn flop_scaling_is_linear_in_blocks() {
        // RGF cost grows linearly with bnum (vs cubic dense growth).
        let (a4, s4) = random_problem(4, 6, 21);
        let (a8, s8) = random_problem(8, 6, 22);
        // `rgf` bumps on the calling thread: its own shard's delta is
        // exact whatever sibling tests add to the process-wide total.
        let flops_of = |a: &BlockTridiag, s: &[Matrix]| {
            let before = counters::local(Counter::Flops);
            rgf(a, s).unwrap();
            counters::local(Counter::Flops) - before
        };
        let (f4, f8) = (flops_of(&a4, &s4), flops_of(&a8, &s8));
        let ratio = f8 as f64 / f4 as f64;
        assert!(
            ratio > 1.7 && ratio < 2.4,
            "doubling blocks should ~double flops, got {ratio}"
        );
    }
}
