//! Shared fixtures for the benchmark harness: reduced-scale devices whose
//! structure matches the paper's evaluation configurations, the skewed
//! load-balance scenario, and the one wall-clock timing helper.

pub mod alloc;
pub mod cli;

use qt_core::device::Device;
use qt_core::gf::{self, GfConfig};
use qt_core::grids::Grids;
use qt_core::hamiltonian::{ElectronModel, PhononModel};
use qt_core::params::SimParams;
use qt_core::sse;
use qt_dist::ElasticTiling;
use qt_linalg::{BlockTridiag, CsrMatrix, Matrix, Tensor};
use qt_model::{imbalance_ratio, CostMap};
use std::time::Instant;

/// Best wall-clock milliseconds of each variant over `reps` rounds. Every
/// variant runs once untimed; then each round runs the variants in turn
/// and keeps each one's minimum, so a slow machine phase (a frequency
/// ramp, a busy neighbour) hits every variant alike instead of biasing
/// whichever owned that stretch of the clock. `reproduce` prints what it
/// returns and gates on none of it.
pub fn best_of_alternating_ms<const N: usize>(reps: usize, variants: [&dyn Fn(); N]) -> [f64; N] {
    for run in variants {
        run();
    }
    let mut best = [f64::INFINITY; N];
    for _ in 0..reps.max(1) {
        for (b, run) in best.iter_mut().zip(variants) {
            let t = Instant::now();
            run();
            *b = b.min(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    best
}

/// The skewed-device scenario of `reproduce balance` at one world size:
/// one energy tile by `4·world` one-slab atom tiles on `world` ranks. The
/// first 4 slabs keep all NB neighbour slots and the rest are pruned bare,
/// so rank 0's uniform block of 4 tiles carries essentially all SSE work.
pub struct SkewedBalance {
    pub p: SimParams,
    pub dev: Device,
    pub world: usize,
    pub te: usize,
    pub ta: usize,
}

impl SkewedBalance {
    pub fn new(world: usize) -> Self {
        let (te, ta) = (1usize, 4 * world);
        let p = SimParams {
            nkz: 2,
            nqz: 2,
            ne: 2 * ta,
            nw: 2,
            na: 2 * ta,
            nb: 4,
            norb: 2,
            bnum: ta,
        };
        let dev = Device::skewed(&p, 4, 0);
        SkewedBalance {
            p,
            dev,
            world,
            te,
            ta,
        }
    }

    /// The predicted per-unit costs (exact `sse_dace_flops_tile` counts).
    pub fn cost_map(&self) -> CostMap {
        CostMap::predict(&self.p, &self.dev, self.te, self.ta)
    }

    /// The static baseline: contiguous blocks of units per rank.
    pub fn uniform_tiling(&self) -> ElasticTiling {
        ElasticTiling::uniform(&self.p, self.te, self.ta, self.world)
    }

    /// The adaptive start: units partitioned by `cm`'s weights.
    pub fn weighted_tiling(&self, cm: &CostMap) -> ElasticTiling {
        ElasticTiling::weighted(&self.p, self.te, self.ta, self.world, &cm.weights())
    }
}

/// Each surviving rank's modeled load: the sum of `cm`'s predicted flops
/// over the units `tiling` gives it.
pub fn modeled_loads(cm: &CostMap, tiling: &ElasticTiling) -> Vec<f64> {
    tiling
        .survivors
        .iter()
        .map(|&r| {
            tiling
                .units_of(r)
                .into_iter()
                .map(|u| cm.predicted_flops[u])
                .sum()
        })
        .collect()
}

/// The cost model's verdict on a weighted tiling against the uniform one:
/// max/mean imbalance and critical path (max per-rank flops) of each. Pure
/// counts, so the gate it carries reads no clock.
#[derive(Clone, Copy, Debug)]
pub struct ModeledBalance {
    pub uniform_imbalance: f64,
    pub weighted_imbalance: f64,
    pub uniform_path: f64,
    pub weighted_path: f64,
}

impl ModeledBalance {
    /// The weighted tiling must cut the imbalance at least this much.
    pub const MIN_IMPROVEMENT: f64 = 2.0;

    pub fn of(cm: &CostMap, uniform: &ElasticTiling, weighted: &ElasticTiling) -> Self {
        let path = |loads: &[f64]| loads.iter().cloned().fold(0.0, f64::max);
        let (u, w) = (modeled_loads(cm, uniform), modeled_loads(cm, weighted));
        ModeledBalance {
            uniform_imbalance: imbalance_ratio(&u),
            weighted_imbalance: imbalance_ratio(&w),
            uniform_path: path(&u),
            weighted_path: path(&w),
        }
    }

    pub fn improvement(&self) -> f64 {
        self.uniform_imbalance / self.weighted_imbalance
    }

    /// What the gate rejects: an imbalance cut below
    /// [`Self::MIN_IMPROVEMENT`], or a critical path no shorter than the
    /// uniform tiling's.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.improvement() < Self::MIN_IMPROVEMENT {
            out.push(format!(
                "modeled imbalance cut {:.2}x ({:.2} -> {:.2}) < required {:.1}x",
                self.improvement(),
                self.uniform_imbalance,
                self.weighted_imbalance,
                Self::MIN_IMPROVEMENT
            ));
        }
        if self.weighted_path >= self.uniform_path {
            out.push(format!(
                "modeled critical path {:.4e} flop is not below the uniform {:.4e}",
                self.weighted_path, self.uniform_path
            ));
        }
        out
    }
}

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
/// Table 6 sweep (`reproduce table6`) and the sparse allocation-regression
/// test.
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
    // row sums to O(bs).
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
        // Bit for bit on the naive GEMM routes (bs 4) and the packed one
        // (bs 16, 48).
        use qt_core::rgf::{rgf_with, MultiplyStrategy};
        for bs in [4, 16, 48] {
            let (a, sig) = sparse_rgf_problem(4, bs, 0.1, 9);
            let dense = rgf_with(&a, &sig, MultiplyStrategy::Dense).unwrap();
            let csrmm = rgf_with(&a, &sig, MultiplyStrategy::Csrmm).unwrap();
            assert_eq!(dense.bit_difference(&csrmm), None, "bs {bs}");
        }
    }

    /// The `reproduce balance` gate without running a world: on the skewed
    /// device the cost-model-weighted start must cut the modeled imbalance
    /// at least 2x and shorten the modeled critical path, at both world
    /// sizes the subcommand runs.
    #[test]
    fn weighted_tiling_passes_the_modeled_balance_gate() {
        for world in [4, 8] {
            let s = SkewedBalance::new(world);
            let cm = s.cost_map();
            let (uniform, weighted) = (s.uniform_tiling(), s.weighted_tiling(&cm));
            let m = ModeledBalance::of(&cm, &uniform, &weighted);
            assert!(
                m.improvement() >= ModeledBalance::MIN_IMPROVEMENT,
                "world {world}: {m:?}"
            );
            assert!(m.weighted_path < m.uniform_path, "world {world}: {m:?}");
            assert!(m.failures().is_empty(), "world {world}: {m:?}");
            // Every unit's flops land on exactly one rank in both tilings.
            let total: f64 = cm.predicted_flops.iter().sum();
            for t in [&uniform, &weighted] {
                let loads = modeled_loads(&cm, t);
                assert_eq!(loads.len(), world);
                assert!((loads.iter().sum::<f64>() - total).abs() <= 1e-9 * total);
            }
            // The gate fires on a tiling that balances nothing.
            let same = ModeledBalance::of(&cm, &uniform, &uniform);
            assert_eq!(same.failures().len(), 2, "world {world}: {same:?}");
        }
    }

    #[test]
    fn alternating_timer_reports_one_minimum_per_variant() {
        let calls = std::cell::Cell::new([0usize; 2]);
        let bump = |i: usize| {
            let mut c = calls.get();
            c[i] += 1;
            calls.set(c);
        };
        let ms = best_of_alternating_ms(3, [&|| bump(0), &|| bump(1)]);
        assert!(ms.iter().all(|t| t.is_finite() && *t >= 0.0), "{ms:?}");
        // One untimed warm-up plus `reps` timed calls each.
        assert_eq!(calls.get(), [4, 4]);
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
