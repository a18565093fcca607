//! Layer probes that do not depend on which workload runs them: the
//! calibrated GEMM ceiling, the `qt_linalg` kernels at the two shapes the
//! workloads stress, one RGF solve, and the checkpoint round trip.

use crate::inputs::{probe_rng, random_complex, Plan, Scale};
use crate::report::Report;
use crate::spans::Counts;
use crate::stats::median;
use qt_core::checkpoint::ScfCheckpoint;
use qt_core::scf::{ScfResult, Simulation};
use qt_linalg::{c64, gemm, lu, workspace, BlockTridiag, Complex64, Matrix};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Seconds of each of `reps` calls of `f`, after one untimed call that
/// fills pools and faults pages in.
pub fn time_reps(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// `model.calibrated_gflops`: the blocked-GEMM rate `qt_model::calibrate`
/// measures for RGF-sized blocks, the ceiling the other rates are read
/// against.
pub fn model(report: &mut Report, plan: &Plan) {
    // `calibrate` has no size knob and times a gigaflop, naive kernels
    // included: minutes in an unoptimised build. It checks nothing, so the
    // smoke scale leaves it out.
    if plan.scale == Scale::Smoke {
        return;
    }
    let cal = qt_model::calibrate();
    let rgf_class = cal
        .classes
        .iter()
        .find(|c| c.class.name == "rgf_block")
        .expect("calibration covers the rgf_block class");
    report.set("model.calibrated_gflops", rgf_class.blocked_flops / 1e9);
}

/// Edge of the large-block probes: the `scf_gemm128` electron block.
const BLOCK: usize = 128;
/// `(norb, Nkz·NE)` of `scf_sse16`: every batched shared-B call of
/// `sse::dace` there is a `(64·4) × 4 × 4` product.
const SSE_SHAPE: (usize, usize) = (4, 64);

/// The `linalg.*` rates. Each sample repeats the kernel until it lasts a
/// few milliseconds, so no sample is shorter than a timer tick.
pub fn linalg(report: &mut Report, plan: &Plan) {
    let mut rng = probe_rng(plan.seed);
    // One call per sample at smoke scale, where the build is unoptimised.
    let per_sample = |full: usize| match plan.scale {
        Scale::Full => full,
        Scale::Smoke => 1,
    };
    let gflops = |flop_per_call: f64, calls: usize, secs: &[f64]| {
        flop_per_call * calls as f64 / median(secs) / 1e9
    };

    let a = random_complex(&mut rng, BLOCK * BLOCK);
    let b = random_complex(&mut rng, BLOCK * BLOCK);
    let mut out = vec![Complex64::ZERO; BLOCK * BLOCK];
    let calls = per_sample(8);
    let secs = time_reps(plan.reps, || {
        for _ in 0..calls {
            gemm::gemm_raw_acc(BLOCK, BLOCK, BLOCK, black_box(&a), black_box(&b), &mut out);
        }
        black_box(&mut out);
    });
    let flop = 8.0 * (BLOCK * BLOCK * BLOCK) as f64;
    report.set("linalg.gemm128_gflops", gflops(flop, calls, &secs));

    let (no, batch) = SSE_SHAPE;
    let a = random_complex(&mut rng, batch * no * no);
    let b = random_complex(&mut rng, no * no);
    let mut out = vec![Complex64::ZERO; batch * no * no];
    let calls = per_sample(2000);
    let secs = time_reps(plan.reps, || {
        for _ in 0..calls {
            gemm::batched_gemm_shared_b_acc(
                no,
                no,
                no,
                batch,
                black_box(&a),
                black_box(&b),
                &mut out,
            );
        }
        black_box(&mut out);
    });
    let flop = 8.0 * (batch * no * no * no) as f64;
    report.set("linalg.gemm_sse_shape_gflops", gflops(flop, calls, &secs));

    // Diagonally dominant, so the inverse exists for every seed.
    let mut m = Matrix::from_vec(BLOCK, BLOCK, random_complex(&mut rng, BLOCK * BLOCK));
    for i in 0..BLOCK {
        m[(i, i)] += c64(BLOCK as f64, 0.0);
    }
    let calls = per_sample(4);
    let secs = time_reps(plan.reps, || {
        for _ in 0..calls {
            let inv = lu::invert_ws(black_box(&m)).expect("diagonally dominant block inverts");
            workspace::give(black_box(inv));
        }
    });
    report.set("linalg.invert128_s", median(&secs) / calls as f64);
}

/// The `rgf.*` metrics: one `rgf()` on the workload's own block-tridiagonal
/// system `(E + iη)·I − H(kz₀)`, with contact-like `Σ<` on the end blocks.
/// Call after [`linalg`]: `rgf.frac_of_gemm` is the solve's flop rate over
/// `linalg.gemm128_gflops`.
pub fn rgf(report: &mut Report, plan: &Plan, sim: &Simulation) {
    let h = sim.em.hamiltonian(&sim.dev, sim.grids.kz[0]);
    let (nb, bs) = (h.num_blocks(), h.block_size());
    let mut z = BlockTridiag::zeros(nb, bs);
    let energy = c64(sim.grids.energies[sim.p.ne / 2], 0.05);
    for n in 0..nb {
        *z.diag_mut(n) = Matrix::scaled_identity(bs, energy);
    }
    let a = z.sub(&h);
    let mut sigma_lesser = vec![Matrix::zeros(bs, bs); nb];
    sigma_lesser[0] = Matrix::scaled_identity(bs, c64(0.0, 0.05));
    sigma_lesser[nb - 1] = Matrix::scaled_identity(bs, c64(0.0, 0.02));

    let c0 = Counts::now();
    let secs = time_reps(plan.reps, || {
        let out =
            qt_core::rgf::rgf(black_box(&a), &sigma_lesser).expect("broadened system is regular");
        black_box(&out);
        out.recycle();
    });
    // One warm-up call plus `reps` timed ones, all with the same count.
    let flop_per_solve = Counts::now().since(c0).flops as f64 / (plan.reps + 1) as f64;
    let rate = flop_per_solve / median(&secs) / 1e9;
    report.set("rgf.solve_s", median(&secs));
    report.set("rgf.gflops", rate);
    if let Some(gemm) = report.get("linalg.gemm128_gflops") {
        report.set("rgf.frac_of_gemm", rate / gemm);
    }
}

/// The `checkpoint.*` metrics: save and load the state a solve of this
/// device leaves behind, in `dir`.
pub fn checkpoint(
    report: &mut Report,
    plan: &Plan,
    result: &ScfResult,
    dir: &Path,
) -> Result<(), String> {
    let ck = ScfCheckpoint {
        iteration: result.iterations,
        mixing_current: 0.5,
        prev_residual: result.residuals.last().copied(),
        decrease_streak: 0,
        residuals: result.residuals.clone(),
        current_history: result.current_history.clone(),
        sigma: result.sigma.clone(),
        pi: result.pi.clone(),
        prev_gl: Some(result.electron.g_lesser.clone()),
    };
    let path = dir.join(format!("probe-{}.ckpt", std::process::id()));
    let mut io_error = None;
    let save = time_reps(plan.reps, || {
        if let Err(e) = ck.save(&path) {
            io_error = Some(format!("checkpoint save to {path:?}: {e}"));
        }
    });
    let mut loaded = None;
    let load = time_reps(plan.reps, || match ScfCheckpoint::load(&path) {
        Ok(back) => loaded = Some(back),
        Err(e) => io_error = Some(format!("checkpoint load from {path:?}: {e}")),
    });
    let bytes = std::fs::metadata(&path).map(|m| m.len());
    // Best effort: the file lives in the build's scratch directory.
    let _ = std::fs::remove_file(&path);
    if let Some(e) = io_error {
        return Err(e);
    }
    let back = loaded.expect("load ran at least once");
    report.check(
        back.current_history == ck.current_history
            && back.sigma.lesser.max_abs_diff(&ck.sigma.lesser) == 0.0
            && back.pi.greater.max_abs_diff(&ck.pi.greater) == 0.0,
        || "checkpoint does not round-trip bitwise".into(),
    );
    report.set("checkpoint.save_s", median(&save));
    report.set("checkpoint.load_s", median(&load));
    report.set(
        "checkpoint.bytes",
        bytes.map_err(|e| format!("checkpoint size: {e}"))? as f64,
    );
    Ok(())
}
