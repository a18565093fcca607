//! GEMM throughput calibration: measure the achieved GF/s of the blocked
//! kernel on the shape classes the simulator actually produces, and derive a
//! [`Machine`] whose sustained-efficiency fields reflect *measured* rather
//! than assumed throughput.
//!
//! The paper's roofline and Table 8 projections assume library GEMM runs at a
//! known fraction of peak. Our reproduction runs on whatever host executes
//! the benchmarks, so the honest analogue is to measure the kernel there:
//! `calibrate()` times each shape class (blocked and naive reference) with
//! the same deterministic inputs the correctness tests use, and
//! [`GemmCalibration::host_machine`] folds the results into the α–β machine
//! model so `qt_model::predict` can be driven by achieved numbers.

use crate::machine::Machine;
use qt_linalg::{c64, gemm, Complex64, CsrMatrix, Matrix};
use std::time::Instant;

/// One GEMM shape family the simulator emits (§4.2 / Table 3).
#[derive(Clone, Copy, Debug)]
pub struct ShapeClass {
    /// Short identifier used in reports ("rgf_block", "sse_batch", …).
    pub name: &'static str,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    /// Number of independent products of this shape per timed pass.
    pub batch: usize,
}

impl ShapeClass {
    /// Real flop per timed pass (8 per complex multiply-accumulate).
    pub fn flops(&self) -> f64 {
        8.0 * (self.m * self.k * self.n * self.batch) as f64
    }
}

/// The three shape families the calibration times: RGF block products
/// (large square), untransformed-SSE Norb batches (many tiny squares,
/// through `batched_gemm_acc`), and a wide inner dimension (one `8 x 1024
/// x 8` product through `gemm_blocked_acc`, like `rgf_block`). Only the
/// first two feed [`GemmCalibration::host_machine`].
pub const SHAPE_CLASSES: [ShapeClass; 3] = [
    ShapeClass {
        name: "rgf_block",
        m: 256,
        k: 256,
        n: 256,
        batch: 1,
    },
    ShapeClass {
        name: "sse_batch",
        m: 16,
        k: 16,
        n: 16,
        batch: 512,
    },
    ShapeClass {
        name: "dace_wide",
        m: 8,
        k: 1024,
        n: 8,
        batch: 1,
    },
];

/// Measured throughput of one shape class.
#[derive(Clone, Copy, Debug)]
pub struct ClassThroughput {
    pub class: ShapeClass,
    /// Blocked/packed kernel, flop/s.
    pub blocked_flops: f64,
    /// Naive seed kernel, flop/s.
    pub naive_flops: f64,
}

impl ClassThroughput {
    pub fn speedup(&self) -> f64 {
        self.blocked_flops / self.naive_flops
    }
}

/// Full calibration result for the executing host.
#[derive(Clone, Debug)]
pub struct GemmCalibration {
    pub classes: Vec<ClassThroughput>,
}

/// Deterministic input fill (splitmix-style LCG) so repeated calibrations
/// time identical data without pulling in a RNG dependency.
fn fill(seed: u64, len: usize) -> Vec<Complex64> {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    (0..len).map(|_| c64(next(), next())).collect()
}

fn time_pass(mut f: impl FnMut(), min_reps: usize) -> f64 {
    f(); // warm up (packing pools, page faults)
    let t = Instant::now();
    for _ in 0..min_reps {
        f();
    }
    t.elapsed().as_secs_f64() / min_reps as f64
}

/// Measure blocked and naive throughput for one shape class.
pub fn measure_class(c: &ShapeClass) -> ClassThroughput {
    let a = fill(1, c.batch * c.m * c.k);
    let b = fill(2, c.batch * c.k * c.n);
    let mut out = vec![Complex64::ZERO; c.batch * c.m * c.n];
    // Aim for ~100 Mflop per timed pass so each measurement is O(10 ms).
    let reps = (1e8 / c.flops()).ceil().max(1.0) as usize;
    let blocked_t = time_pass(
        || {
            if c.batch == 1 {
                gemm::gemm_blocked_acc(c.m, c.k, c.n, &a, &b, &mut out);
            } else {
                gemm::batched_gemm_acc(c.m, c.k, c.n, c.batch, &a, &b, &mut out);
            }
        },
        reps,
    );
    let naive_t = time_pass(
        || {
            if c.batch == 1 {
                gemm::gemm_naive_acc(c.m, c.k, c.n, &a, &b, &mut out);
            } else {
                gemm::gemm_naive_batched_acc(c.m, c.k, c.n, c.batch, &a, &b, &mut out);
            }
        },
        reps,
    );
    ClassThroughput {
        class: *c,
        blocked_flops: c.flops() / blocked_t,
        naive_flops: c.flops() / naive_t,
    }
}

/// Run the full calibration sweep over [`SHAPE_CLASSES`].
pub fn calibrate() -> GemmCalibration {
    GemmCalibration {
        classes: SHAPE_CLASSES.iter().map(measure_class).collect(),
    }
}

impl GemmCalibration {
    fn class(&self, name: &str) -> &ClassThroughput {
        self.classes
            .iter()
            .find(|c| c.class.name == name)
            .expect("calibration covers all shape classes")
    }

    /// A [`Machine`] describing the executing host, with the sustained
    /// efficiencies replaced by achieved fractions of `peak_flops`:
    /// `eff_gf` from the RGF block class, `eff_sse` from the batched-SSE
    /// class run through the blocked kernel, `eff_sse_omen` from the same
    /// class through the naive seed kernel (the "untransformed" baseline).
    /// Network fields carry over from `template` — calibration only
    /// measures compute.
    pub fn host_machine(&self, peak_flops: f64, template: &Machine) -> Machine {
        let rgf = self.class("rgf_block");
        let sse = self.class("sse_batch");
        Machine {
            name: "calibrated-host",
            nodes_total: 1,
            gpus_per_node: 1,
            procs_per_node: 1,
            gpu_peak_flops: peak_flops,
            eff_gf: rgf.blocked_flops / peak_flops,
            eff_sse: sse.blocked_flops / peak_flops,
            eff_sse_omen: sse.naive_flops / peak_flops,
            alltoall_bw_per_node: template.alltoall_bw_per_node,
            omen_bw_penalty: template.omen_bw_penalty,
        }
    }
}

/// Measured throughput of the two Table 6 kernel families at one
/// coupling-block size: blocked dense GEMM versus the CSR row kernels.
/// The ratio `sparse_rate / dense_rate` is the density below which the
/// sparse route wins — CSRMM costs `8·nnz·bs` flop against GEMM's
/// `8·bs³`, so sparse time undercuts dense time exactly when
/// `density < sparse_rate / dense_rate`.
#[derive(Clone, Copy, Debug)]
pub struct KernelCalibration {
    /// Block size the rates were measured at.
    pub block_size: usize,
    /// Blocked dense GEMM throughput, flop/s.
    pub dense_rate: f64,
    /// CSR×dense throughput *on the nonzeros*, flop/s. Lower than
    /// `dense_rate` on any real machine (irregular access, no packing),
    /// which is precisely why the crossover sits below density 1.
    pub sparse_rate: f64,
}

impl KernelCalibration {
    /// Density at which the two kernels break even, clamped to `[0, 1]`.
    pub fn crossover(&self) -> f64 {
        if self.dense_rate > 0.0 {
            (self.sparse_rate / self.dense_rate).clamp(0.0, 1.0)
        } else {
            1.0
        }
    }
}

/// Deterministic dense matrix at roughly `density`, for the sparse side of
/// the kernel calibration.
fn sparse_fill(seed: u64, rows: usize, cols: usize, density: f64) -> Matrix {
    let mut s = seed;
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

/// Time the blocked GEMM and the CSR×dense kernel at block size `bs`,
/// the sparse side on a representative coupling block of the given
/// structural `density`. Per-nonzero rates are density-dependent in
/// practice (shorter rows amortize less), so calibrate at a density near
/// the device's actual coupling density
/// ([`qt_core::hamiltonian::ElectronModel::coupling_density`]).
pub fn calibrate_kernels(bs: usize, density: f64) -> KernelCalibration {
    let a = fill(3, bs * bs);
    let b = fill(4, bs * bs);
    let mut out = vec![Complex64::ZERO; bs * bs];
    let dense_flops = 8.0 * (bs * bs * bs) as f64;
    let reps = (1e8 / dense_flops).ceil().clamp(1.0, 1e5) as usize;
    let dense_t = time_pass(
        || gemm::gemm_blocked_acc(bs, bs, bs, &a, &b, &mut out),
        reps,
    );
    let coupling = CsrMatrix::from_dense(&sparse_fill(5, bs, bs, density), 0.0);
    let operand = sparse_fill(6, bs, bs, 1.0);
    let mut sout = Matrix::zeros(bs, bs);
    // Rate on the nonzeros: the work CSRMM actually performs.
    let sparse_flops = (8 * coupling.nnz() * bs).max(8) as f64;
    let reps_s = (1e8 / sparse_flops).ceil().clamp(1.0, 1e5) as usize;
    let sparse_t = time_pass(|| coupling.mul_dense_acc(&operand, &mut sout), reps_s);
    KernelCalibration {
        block_size: bs,
        dense_rate: dense_flops / dense_t,
        sparse_rate: sparse_flops / sparse_t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::PIZ_DAINT;

    /// Tiny shapes so the test costs milliseconds, not seconds.
    fn quick() -> GemmCalibration {
        GemmCalibration {
            classes: vec![
                measure_class(&ShapeClass {
                    name: "rgf_block",
                    m: 48,
                    k: 48,
                    n: 48,
                    batch: 1,
                }),
                measure_class(&ShapeClass {
                    name: "sse_batch",
                    m: 8,
                    k: 8,
                    n: 8,
                    batch: 32,
                }),
            ],
        }
    }

    #[test]
    fn calibration_produces_positive_rates() {
        for c in &quick().classes {
            assert!(c.blocked_flops > 0.0 && c.naive_flops > 0.0);
        }
    }

    #[test]
    fn host_machine_inherits_network_and_orders_efficiencies() {
        let cal = quick();
        // Use a generous synthetic peak so efficiencies land in (0, 1).
        let peak = 1e12;
        let m = cal.host_machine(peak, &PIZ_DAINT);
        assert_eq!(m.name, "calibrated-host");
        assert!(m.eff_gf > 0.0 && m.eff_gf < 1.0);
        assert!(m.eff_sse > 0.0 && m.eff_sse < 1.0);
        assert!(m.eff_sse_omen > 0.0);
        assert_eq!(m.alltoall_bw_per_node, PIZ_DAINT.alltoall_bw_per_node);
        assert_eq!(m.omen_bw_penalty, PIZ_DAINT.omen_bw_penalty);
        // compute_rate plumbs the measured efficiency through unchanged.
        let rate = m.compute_rate(1, m.eff_gf);
        assert!((rate - cal.class("rgf_block").blocked_flops).abs() / rate < 1e-12);
    }

    #[test]
    fn kernel_calibration_rates_and_crossover() {
        let k = calibrate_kernels(24, 0.1);
        assert!(k.dense_rate > 0.0 && k.sparse_rate > 0.0);
        let c = k.crossover();
        assert!(c > 0.0 && c <= 1.0, "crossover must be a density, got {c}");
        // A dead dense rate degrades to an all-sparse crossover of 1.
        let z = KernelCalibration {
            block_size: 8,
            dense_rate: 0.0,
            sparse_rate: 1.0,
        };
        assert_eq!(z.crossover(), 1.0);
    }

    #[test]
    fn shape_class_flop_formula() {
        let c = ShapeClass {
            name: "x",
            m: 2,
            k: 3,
            n: 4,
            batch: 5,
        };
        assert_eq!(c.flops(), 8.0 * 2.0 * 3.0 * 4.0 * 5.0);
    }
}
