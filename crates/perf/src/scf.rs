//! The single-point SCF workloads `scf_gemm128` and `scf_sse16`, and the
//! outside-in replay of one Born iteration that the traced pass of every
//! SCF-based workload uses.

use crate::harness::{after_cold_starts, end_to_end, fresh_thread, timed_ops, HostCalib};
use crate::inputs::{scf_input, Plan, ScfInput};
use crate::probes;
use crate::report::Report;
use crate::spans::{self, Recorder, Span, SpanId};
use crate::stats::median;
use qt_core::gf::{self, ElectronSelfEnergy, PhononSelfEnergy};
use qt_core::scf::{run_scf, MixingController, ScfConfig, ScfResult, Simulation};
use qt_core::sse::{self, SseInputs, SseVariant};
use qt_linalg::Tensor;
use std::time::Instant;

/// Relative tolerance of the seed-1 reference current: loose enough for a
/// different libm or FMA contraction, far tighter than any physics change.
const REF_TOLERANCE: f64 = 1e-9;

pub fn numerical(e: impl std::fmt::Display) -> String {
    format!("solver failed on a benchmark input: {e}")
}

/// One cold start: build the inputs, construct the simulation, and run the
/// first Born iteration, which fills the boundary cache (Sancho–Rubio for
/// every grid point), the workspace arenas and the kernel selectors.
fn cold_start(input: &ScfInput) -> Result<(f64, Simulation), String> {
    let t = Instant::now();
    let sim = input.build()?;
    let first = ScfConfig {
        max_iterations: 1,
        ..input.cfg
    };
    run_scf(&sim, &first).map_err(numerical)?;
    Ok((t.elapsed().as_secs_f64(), sim))
}

/// The untraced pass: `qt_telemetry` disabled, end-to-end metrics only.
pub fn run(workload: &str, plan: &Plan, report: &mut Report) -> Result<(), String> {
    let input = scf_input(workload, plan);
    println!("sizes: {:?}", input.params);
    after_cold_starts(
        plan,
        || cold_start(&input),
        |sim, setup_s| {
            let mut currents = Vec::new();
            let ops = timed_ops(plan, |_| {
                let out = run_scf(&sim, &input.cfg).map_err(numerical)?;
                currents.push(*out.current_history.last().expect("two iterations ran"));
                Ok(out.iterations as f64)
            })?;
            check_currents(&input, plan, &currents, report);
            end_to_end(report, setup_s, &ops)
        },
    )
}

/// Every op must reproduce the first op's current bitwise, and at seed 1
/// the recorded reference to [`REF_TOLERANCE`].
fn check_currents(input: &ScfInput, plan: &Plan, currents: &[f64], report: &mut Report) {
    let first = currents[0];
    println!("current: {first:e}");
    report.attempted += currents.len() as u64;
    report.failed += currents
        .iter()
        .filter(|c| c.to_bits() != first.to_bits())
        .count() as u64;
    if plan.seed == 1 {
        let reference = input.ref_current_seed1;
        report.check(
            (first - reference).abs() <= REF_TOLERANCE * reference.abs(),
            || format!("seed-1 current {first:e} is not the recorded {reference:e}"),
        );
    }
}

/// `electron_gf_phase_cached` as `run_scf_with` calls it.
fn electron_phase(
    sim: &Simulation,
    cfg: &ScfConfig,
    sigma: &ElectronSelfEnergy,
) -> Result<gf::ElectronGf, String> {
    gf::electron_gf_phase_cached(
        &sim.dev,
        &sim.em,
        &sim.p,
        &sim.grids,
        sigma,
        &cfg.gf,
        Some(&sim.boundary),
        Some(&sim.kernel_selector_e),
    )
    .map_err(numerical)
}

/// `phonon_gf_phase_cached` as `run_scf_with` calls it.
fn phonon_phase(
    sim: &Simulation,
    cfg: &ScfConfig,
    pi: &PhononSelfEnergy,
) -> Result<gf::PhononGf, String> {
    gf::phonon_gf_phase_cached(
        &sim.dev,
        &sim.pm,
        &sim.p,
        &sim.grids,
        pi,
        &cfg.gf,
        Some(&sim.boundary),
        Some(&sim.kernel_selector_ph),
    )
    .map_err(numerical)
}

/// What one replayed solve produced.
pub struct Replay {
    pub currents: Vec<f64>,
    pub converged: bool,
}

/// Replay `run_scf_with`'s Born loop from outside, call for call and in
/// its order, with a span around every call into another layer. The two
/// pieces of the loop that belong to `scf` itself (the `G<` residual with
/// its clone, and the mixing) get spans too, so nothing but bookkeeping is
/// left unattributed.
pub fn replay_solve(
    rec: &Recorder,
    sim: &Simulation,
    cfg: &ScfConfig,
    op_id: u64,
) -> Result<Replay, String> {
    rec.scope("scf.op", None, op_id, |op| {
        let p = &sim.p;
        let mut sigma = ElectronSelfEnergy::zeros(p);
        let mut pi = PhononSelfEnergy::zeros(p);
        let mut prev_gl: Option<Tensor> = None;
        let mut mixer = MixingController::new(cfg.mixing, cfg.adaptive_mixing);
        let mut out = Replay {
            currents: Vec::new(),
            converged: false,
        };
        for _ in 0..cfg.max_iterations {
            let done = rec.scope("scf.iter", Some(op), op_id, |it| {
                replay_iteration(
                    rec,
                    sim,
                    cfg,
                    it,
                    op_id,
                    &mut sigma,
                    &mut pi,
                    &mut prev_gl,
                    &mut mixer,
                    &mut out,
                )
            })?;
            if done {
                break;
            }
        }
        Ok(out)
    })
}

/// One Born iteration; `Ok(true)` when the residual test stopped the loop.
#[allow(clippy::too_many_arguments)]
fn replay_iteration(
    rec: &Recorder,
    sim: &Simulation,
    cfg: &ScfConfig,
    it: SpanId,
    op_id: u64,
    sigma: &mut ElectronSelfEnergy,
    pi: &mut PhononSelfEnergy,
    prev_gl: &mut Option<Tensor>,
    mixer: &mut MixingController,
    out: &mut Replay,
) -> Result<bool, String> {
    let p = &sim.p;
    let egf = rec.leaf("gf.electron", it, op_id, || electron_phase(sim, cfg, sigma))?;
    let pgf = rec.leaf("gf.phonon", it, op_id, || phonon_phase(sim, cfg, pi))?;
    out.currents.push(egf.current);
    let res = rec.leaf("scf.residual", it, op_id, || {
        let res = match prev_gl.as_ref() {
            None => f64::INFINITY,
            Some(prev) => {
                let norm = egf.g_lesser.norm().max(1e-300);
                let mut diff2 = 0.0;
                for (a, b) in egf.g_lesser.as_slice().iter().zip(prev.as_slice()) {
                    diff2 += (*a - *b).norm_sqr();
                }
                diff2.sqrt() / norm
            }
        };
        *prev_gl = Some(egf.g_lesser.clone());
        res
    });
    mixer.observe(res);
    if res < cfg.tolerance {
        out.converged = true;
        return Ok(true);
    }
    let (dl, dg) = rec.leaf("sse.preprocess_d", it, op_id, || {
        sse::preprocess_d(&sim.dev, p, &pgf)
    });
    let inputs = SseInputs {
        dev: &sim.dev,
        p,
        grids: &sim.grids,
        dh: &sim.dh,
        g_lesser: &egf.g_lesser,
        g_greater: &egf.g_greater,
        d_lesser_pre: &dl,
        d_greater_pre: &dg,
    };
    let mut new_sigma = rec.leaf("sse.sigma", it, op_id, || sse::sigma(&inputs, cfg.variant));
    rec.leaf("sse.stabilize_sigma", it, op_id, || {
        sse::stabilize_sigma(&mut new_sigma, p)
    });
    let mut new_pi = rec.leaf("sse.pi", it, op_id, || sse::pi(&inputs, cfg.variant));
    rec.leaf("sse.stabilize_pi", it, op_id, || {
        sse::stabilize_pi(&mut new_pi, p)
    });
    rec.leaf("scf.mix", it, op_id, || {
        let mix = mixer.current;
        for (old, new) in [
            (&mut sigma.lesser, &new_sigma.lesser),
            (&mut sigma.greater, &new_sigma.greater),
            (&mut pi.lesser, &new_pi.lesser),
            (&mut pi.greater, &new_pi.greater),
        ] {
            for (o, n) in old.as_mut_slice().iter_mut().zip(new.as_slice()) {
                *o = o.scale(1.0 - mix) + n.scale(mix);
            }
        }
    });
    Ok(false)
}

/// Bookkeeping a replayed iteration may leave outside every child span.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// Reduce the replayed iterations to the `gf.*`, `sse.*` and `scf.*` layer
/// metrics: per iteration, sum each layer's child spans, then take medians
/// over the iterations.
pub fn iteration_metrics(all: &[Span], report: &mut Report) {
    let own = spans::self_times(all);
    let mut per_iter: Vec<IterSums> = Vec::new();
    for (id, s) in all.iter().enumerate().filter(|(_, s)| s.name == "scf.iter") {
        let mut sums = IterSums {
            total: s.duration(),
            unattributed: own[id],
            flops: s.counts.flops as f64,
            ws_fresh: s.counts.ws_fresh as f64,
            boundary_misses: s.counts.boundary_misses as f64,
            ..IterSums::default()
        };
        for c in all.iter().filter(|c| c.parent == Some(id)) {
            let d = c.duration();
            let flops = c.counts.flops as f64;
            match c.name {
                "gf.electron" => sums.gf_electron += d,
                "gf.phonon" => sums.gf_phonon += d,
                "sse.preprocess_d" => sums.preprocess += d,
                "sse.sigma" => sums.sigma += d,
                "sse.pi" => sums.pi += d,
                "sse.stabilize_sigma" | "sse.stabilize_pi" => sums.stabilize += d,
                _ => {}
            }
            match c.name {
                "gf.electron" | "gf.phonon" => sums.gf_flops += flops,
                "sse.sigma" | "sse.pi" => sums.sse_flops += flops,
                _ => {}
            }
        }
        per_iter.push(sums);
    }
    // The iteration that meets the tolerance stops after its GF phases;
    // the SSE metrics are medians over the iterations that ran the kernels.
    let with_sse: Vec<&IterSums> = per_iter.iter().filter(|i| i.sigma > 0.0).collect();
    let med = |f: fn(&IterSums) -> f64| median(&per_iter.iter().map(f).collect::<Vec<_>>());
    let med_sse =
        |f: fn(&IterSums) -> f64| median(&with_sse.iter().map(|i| f(i)).collect::<Vec<_>>());
    report.set("scf.iter_s", med(|i| i.total));
    report.set("scf.self_s", med(|i| i.total - i.gf() - i.sse()));
    report.set("scf.gf_share", med(|i| i.gf() / i.total));
    report.set("scf.sse_share", med(|i| i.sse() / i.total));
    report.set("scf.flops_per_iter", med(|i| i.flops));
    report.set("gf.electron_s", med(|i| i.gf_electron));
    report.set("gf.phonon_s", med(|i| i.gf_phonon));
    report.set("gf.gflops", med(|i| i.gf_flops / i.gf() / 1e9));
    report.set("sse.preprocess_d_s", med_sse(|i| i.preprocess));
    report.set("sse.sigma_dace_s", med_sse(|i| i.sigma));
    report.set("sse.pi_dace_s", med_sse(|i| i.pi));
    report.set("sse.stabilize_s", med_sse(|i| i.stabilize));
    report.set(
        "sse.dace_gflops",
        med_sse(|i| i.sse_flops / (i.sigma + i.pi) / 1e9),
    );
    // Counts, not medians: a single warm miss anywhere is a finding.
    let iters = per_iter.len() as f64;
    let total = |f: fn(&IterSums) -> f64| per_iter.iter().map(f).sum::<f64>();
    report.set("linalg.ws_fresh_per_iter", total(|i| i.ws_fresh) / iters);
    report.set("boundary.misses_warm", total(|i| i.boundary_misses));
    let worst = per_iter
        .iter()
        .map(|i| i.unattributed / i.total)
        .fold(0.0, f64::max);
    report.check(worst <= MAX_UNATTRIBUTED, || {
        format!("child spans leave {worst:.3} of an iteration span unattributed")
    });
}

#[derive(Default)]
struct IterSums {
    total: f64,
    unattributed: f64,
    gf_electron: f64,
    gf_phonon: f64,
    preprocess: f64,
    sigma: f64,
    pi: f64,
    stabilize: f64,
    flops: f64,
    gf_flops: f64,
    sse_flops: f64,
    ws_fresh: f64,
    boundary_misses: f64,
}

impl IterSums {
    fn gf(&self) -> f64 {
        self.gf_electron + self.gf_phonon
    }

    fn sse(&self) -> f64 {
        self.preprocess + self.sigma + self.pi + self.stabilize
    }
}

/// `boundary.fill_s`: both GF phases on a fresh simulation (every contact
/// self-energy computed by Sancho–Rubio decimation) minus the same calls
/// repeated on the now-filled cache; median over fresh simulations.
fn boundary_fill(
    build: &(dyn Fn() -> Result<Simulation, String> + Sync),
    cfg: &ScfConfig,
    plan: &Plan,
    report: &mut Report,
) -> Result<(), String> {
    let fresh_sims = plan.reps.min(3);
    let mut fill = Vec::with_capacity(fresh_sims);
    for _ in 0..fresh_sims {
        fill.push(fresh_thread(|| -> Result<f64, String> {
            let sim = build()?;
            let (sigma, pi) = (
                ElectronSelfEnergy::zeros(&sim.p),
                PhononSelfEnergy::zeros(&sim.p),
            );
            let phases = || -> Result<f64, String> {
                let t = Instant::now();
                electron_phase(&sim, cfg, &sigma)?;
                phonon_phase(&sim, cfg, &pi)?;
                Ok(t.elapsed().as_secs_f64())
            };
            let cold = phases()?;
            Ok(cold - phases()?)
        })?);
    }
    report.set("boundary.fill_s", median(&fill));
    Ok(())
}

/// `sse.sigma_omen_s` and Table 7's ratio: the untransformed OMEN Σ kernel
/// on the tensors of a finished solve, against the replayed DaCe median.
fn omen_sigma(sim: &Simulation, result: &ScfResult, plan: &Plan, report: &mut Report) {
    let (dl, dg) = sse::preprocess_d(&sim.dev, &sim.p, &result.phonon);
    let inputs = SseInputs {
        dev: &sim.dev,
        p: &sim.p,
        grids: &sim.grids,
        dh: &sim.dh,
        g_lesser: &result.electron.g_lesser,
        g_greater: &result.electron.g_greater,
        d_lesser_pre: &dl,
        d_greater_pre: &dg,
    };
    // The OMEN kernel is the slow side of Table 7; three calls of it are
    // long enough to be steady and all the traced pass can afford.
    let secs = probes::time_reps(plan.reps.min(3), || {
        std::hint::black_box(sse::sigma(&inputs, SseVariant::Omen));
    });
    let omen = median(&secs);
    report.set("sse.sigma_omen_s", omen);
    if let Some(dace) = report.get("sse.sigma_dace_s") {
        report.set("sse.omen_over_dace", omen / dace);
    }
}

/// The layer pass over one device: boundary fill on fresh simulations,
/// then on a warm one the replayed solves (each checked bitwise against
/// `run_scf` itself) and the probes that need the device or its tensors.
/// Runs on the calling thread; returns the warm simulation.
pub fn layer_pass(
    build: &(dyn Fn() -> Result<Simulation, String> + Sync),
    cfg: &ScfConfig,
    plan: &Plan,
    replay_seconds: f64,
    report: &mut Report,
    rec: &Recorder,
    calib: &mut HostCalib,
) -> Result<Simulation, String> {
    boundary_fill(build, cfg, plan, report)?;
    let sim = build()?;
    let baseline = run_scf(&sim, cfg).map_err(numerical)?;
    calib.sample();
    // Replays: `replay_seconds` of them, at least four solves at full scale.
    let t0 = Instant::now();
    let mut replays = 0u64;
    while replays < plan.reps.div_ceil(2) as u64 || t0.elapsed().as_secs_f64() < replay_seconds {
        let replay = replay_solve(rec, &sim, cfg, replays)?;
        let same = replay.currents.len() == baseline.current_history.len()
            && replay.converged == baseline.converged
            && replay
                .currents
                .iter()
                .zip(&baseline.current_history)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        report.attempted += 1;
        report.failed += u64::from(!same);
        report.check(same, || {
            format!(
                "replayed currents {:?} are not run_scf's {:?}",
                replay.currents, baseline.current_history
            )
        });
        replays += 1;
        calib.sample();
    }
    iteration_metrics(&rec.snapshot(), report);
    omen_sigma(&sim, &baseline, plan, report);
    probes::rgf(report, plan, &sim);
    probes::checkpoint(report, plan, &baseline, &crate::host::out_dir()?)?;
    Ok(sim)
}

/// `telemetry.overhead_frac`: the same operation with `qt_telemetry`'s
/// spans and hot-section timers enabled, against it disabled, alternating
/// so both sides see the same host. `op` returns its own timing sample.
pub fn telemetry_overhead(
    seconds: f64,
    min_pairs: usize,
    calib: &mut HostCalib,
    mut op: impl FnMut() -> Result<f64, String>,
) -> Result<f64, String> {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while off.len() < min_pairs || t0.elapsed().as_secs_f64() < seconds {
        for (enabled, samples) in [(false, &mut off), (true, &mut on)] {
            qt_telemetry::set_enabled(enabled);
            let outcome = op();
            qt_telemetry::set_enabled(false);
            samples.push(outcome?);
        }
        calib.sample();
    }
    // Nothing reads the phase registry the enabled side filled; drop it.
    qt_telemetry::registry::reset_phases();
    Ok((median(&on) - median(&off)) / median(&off))
}

/// The traced pass: layer pass, telemetry overhead, host-independent probes.
pub fn trace(
    workload: &str,
    plan: &Plan,
    report: &mut Report,
    rec: &Recorder,
) -> Result<(), String> {
    let input = scf_input(workload, plan);
    println!("sizes: {:?}", input.params);
    probes::model(report, plan);
    probes::linalg(report, plan);
    fresh_thread(|| {
        let mut calib = HostCalib::default();
        let replay_seconds = plan.seconds / 3.0;
        let sim = layer_pass(
            &|| input.build(),
            &input.cfg,
            plan,
            replay_seconds,
            report,
            rec,
            &mut calib,
        )?;
        let overhead = telemetry_overhead(
            plan.seconds / 4.0,
            plan.reps.div_ceil(2).min(3),
            &mut calib,
            || {
                let t = Instant::now();
                run_scf(&sim, &input.cfg).map_err(numerical)?;
                Ok(t.elapsed().as_secs_f64())
            },
        )?;
        report.set("telemetry.overhead_frac", overhead);
        calib.report(report);
        Ok(())
    })
}
