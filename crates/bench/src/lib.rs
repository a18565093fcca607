//! Shared fixtures for the benchmark harness: reduced-scale devices whose
//! structure matches the paper's evaluation configurations.

pub mod alloc;
pub mod cli;

use qt_core::device::Device;
use qt_core::gf::{self, GfConfig};
use qt_core::grids::Grids;
use qt_core::hamiltonian::{ElectronModel, PhononModel};
use qt_core::params::SimParams;
use qt_core::sse;
use qt_linalg::{BlockTridiag, CsrMatrix, Matrix, Tensor};

/// Reduced-scale stand-in for the 4,864-atom Table 7 configuration:
/// identical structure, laptop-sized dimensions.
pub fn bench_params() -> SimParams {
    SimParams {
        nkz: 3,
        nqz: 3,
        ne: 32,
        nw: 4,
        na: 32,
        nb: 4,
        norb: 4,
        bnum: 8,
    }
}

/// Everything a kernel benchmark needs, built once.
pub struct BenchFixture {
    pub p: SimParams,
    pub dev: Device,
    pub em: ElectronModel,
    pub pm: PhononModel,
    pub grids: Grids,
    pub dh: Tensor,
    pub g_lesser: Tensor,
    pub g_greater: Tensor,
    pub d_lesser_pre: Tensor,
    pub d_greater_pre: Tensor,
    pub cfg: GfConfig,
}

impl BenchFixture {
    pub fn new(p: SimParams) -> Self {
        let dev = Device::new(&p);
        let em = ElectronModel::for_params(&p);
        let pm = PhononModel::default();
        let grids = Grids::new(&p, -1.2, 1.2);
        let cfg = GfConfig::default();
        let egf = gf::electron_gf_phase(
            &dev,
            &em,
            &p,
            &grids,
            &gf::ElectronSelfEnergy::zeros(&p),
            &cfg,
        )
        .expect("electron GF");
        let pgf = gf::phonon_gf_phase(
            &dev,
            &pm,
            &p,
            &grids,
            &gf::PhononSelfEnergy::zeros(&p),
            &cfg,
        )
        .expect("phonon GF");
        let (dl, dg) = sse::preprocess_d(&dev, &p, &pgf);
        BenchFixture {
            dh: em.dh_tensor(&dev),
            g_lesser: egf.g_lesser,
            g_greater: egf.g_greater,
            d_lesser_pre: dl,
            d_greater_pre: dg,
            p,
            dev,
            em,
            pm,
            grids,
            cfg,
        }
    }

    pub fn sse_inputs(&self) -> sse::SseInputs<'_> {
        sse::SseInputs {
            dev: &self.dev,
            p: &self.p,
            grids: &self.grids,
            dh: &self.dh,
            g_lesser: &self.g_lesser,
            g_greater: &self.g_greater,
            d_lesser_pre: &self.d_lesser_pre,
            d_greater_pre: &self.d_greater_pre,
        }
    }
}

/// The Table 6 operand set: sparse Hamiltonian blocks `F`, `E` and a dense
/// retarded Green's-function block `gR` of order `n`.
pub struct Table6Operands {
    pub f_sparse: CsrMatrix,
    pub e_sparse: CsrMatrix,
    pub g_dense: Matrix,
    pub g_sparse: CsrMatrix,
}

/// Build representative Table 6 operands (`n × n`, Hamiltonian blocks with
/// the given density; `gR` is dense with a sparsified image for the
/// CSRGEMM route).
pub fn table6_operands(n: usize, density: f64, seed: u64) -> Table6Operands {
    use rand::{Rng as _, SeedableRng};
    let mut r = rand::rngs::StdRng::seed_from_u64(seed);
    let sparse = |r: &mut rand::rngs::StdRng| {
        let d = Matrix::from_fn(n, n, |_, _| {
            if r.random_range(0.0..1.0) < density {
                qt_linalg::c64(r.random_range(-1.0..1.0), r.random_range(-1.0..1.0))
            } else {
                qt_linalg::Complex64::ZERO
            }
        });
        CsrMatrix::from_dense(&d, 0.0)
    };
    let f_sparse = sparse(&mut r);
    let e_sparse = sparse(&mut r);
    let g_dense = Matrix::random(n, n, &mut r);
    // "Keeping the result (and thus gR) sparse": threshold the dense block.
    let g_thresh = Matrix::from_fn(n, n, |i, j| {
        let v = g_dense[(i, j)];
        if v.abs() > 0.85 {
            v
        } else {
            qt_linalg::Complex64::ZERO
        }
    });
    let g_sparse = CsrMatrix::from_dense(&g_thresh, 0.0);
    Table6Operands {
        f_sparse,
        e_sparse,
        g_dense,
        g_sparse,
    }
}

/// A synthetic sparse block-tridiagonal RGF problem at a controlled
/// coupling density: diagonally dominant (well-conditioned) dense diagonal
/// blocks, random coupling blocks keeping each entry with probability
/// `density`, and anti-Hermitian `Σ<` blocks. One fixture serves the
/// Table 6 sweep (`reproduce table6`), the criterion benchmark, and the
/// sparse allocation-regression test.
pub fn sparse_rgf_problem(
    nb: usize,
    bs: usize,
    density: f64,
    seed: u64,
) -> (BlockTridiag, Vec<Matrix>) {
    use rand::{Rng as _, SeedableRng};
    let mut r = rand::rngs::StdRng::seed_from_u64(seed);
    let mut a = BlockTridiag::zeros(nb, bs);
    // The diagonal shift scales with the block order so the system stays
    // diagonally dominant even when dense couplings push the off-diagonal
    // row sums to O(bs): the kernel-agreement gates compare observables to
    // 1e-10 and must not be washed out by conditioning.
    let shift = qt_linalg::c64(4.0 + 2.5 * bs as f64, 1.0);
    for n in 0..nb {
        let mut d = Matrix::random(bs, bs, &mut r);
        for i in 0..bs {
            d[(i, i)] += shift;
        }
        *a.diag_mut(n) = d;
    }
    for n in 0..nb - 1 {
        let blk = |r: &mut rand::rngs::StdRng| {
            Matrix::from_fn(bs, bs, |_, _| {
                if r.random_range(0.0..1.0) < density {
                    qt_linalg::c64(r.random_range(-1.0..1.0), r.random_range(-1.0..1.0))
                } else {
                    qt_linalg::Complex64::ZERO
                }
            })
        };
        *a.upper_mut(n) = blk(&mut r);
        *a.lower_mut(n) = blk(&mut r);
    }
    let sig: Vec<Matrix> = (0..nb)
        .map(|_| Matrix::random_hermitian(bs, &mut r).scale(qt_linalg::Complex64::I))
        .collect();
    (a, sig)
}

/// Route (a): densify both Hamiltonian blocks, two dense GEMMs.
pub fn table6_dense_mm(ops: &Table6Operands) -> Matrix {
    let f = ops.f_sparse.to_dense();
    let e = ops.e_sparse.to_dense();
    f.matmul(&ops.g_dense).matmul(&e)
}

/// Route (b): CSR × dense, then dense × CSR (the paper's winning CSRMM).
pub fn table6_csrmm(ops: &Table6Operands) -> Matrix {
    let fg = ops.f_sparse.mul_dense(&ops.g_dense);
    ops.e_sparse.rmul_dense(&fg)
}

/// Route (c): all-sparse CSRGEMM chain.
pub fn table6_csrgemm(ops: &Table6Operands) -> CsrMatrix {
    ops.f_sparse.mul_csr(&ops.g_sparse).mul_csr(&ops.e_sparse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_routes_agree_where_comparable() {
        let ops = table6_operands(48, 0.1, 3);
        let a = table6_dense_mm(&ops);
        let b = table6_csrmm(&ops);
        assert!(a.max_abs_diff(&b) < 1e-10);
        let c = table6_csrgemm(&ops).to_dense();
        let ref_sparse = ops
            .f_sparse
            .to_dense()
            .matmul(&ops.g_sparse.to_dense())
            .matmul(&ops.e_sparse.to_dense());
        assert!(c.max_abs_diff(&ref_sparse) < 1e-10);
    }

    #[test]
    fn sparse_rgf_problem_strategies_agree() {
        let (a, sig) = sparse_rgf_problem(4, 12, 0.1, 9);
        let dense =
            qt_core::rgf::rgf_with_strategy(&a, &sig, qt_core::rgf::MultiplyStrategy::Dense)
                .unwrap();
        let sparse = qt_core::rgf::rgf_with_strategy(
            &a,
            &sig,
            qt_core::rgf::MultiplyStrategy::Csrmm { threshold: 0.0 },
        )
        .unwrap();
        for n in 0..4 {
            assert!(dense.gr_diag[n].max_abs_diff(&sparse.gr_diag[n]) < 1e-10);
            assert!(dense.gl_diag[n].max_abs_diff(&sparse.gl_diag[n]) < 1e-10);
        }
    }

    #[test]
    fn fixture_builds() {
        let fx = BenchFixture::new(SimParams {
            nkz: 2,
            nqz: 2,
            ne: 8,
            nw: 2,
            na: 8,
            nb: 3,
            norb: 2,
            bnum: 4,
        });
        assert!(fx.g_lesser.norm() > 0.0);
        assert!(fx.d_lesser_pre.norm() > 0.0);
    }
}
