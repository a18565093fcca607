//! `dist_ca2`: one distributed GF+SSE iteration of the `scf_sse16` device
//! on a 2-rank thread world — the only workload that runs
//! `qt_dist::comm`/`schemes`, and the one that uses the SSE layer tiled,
//! behind the all-to-all, instead of serially.

use crate::harness::{after_cold_starts, end_to_end, fresh_thread, timed_ops, HostCalib};
use crate::inputs::{scf_input, Plan, ScfInput};
use crate::probes;
use crate::report::Report;
use crate::scf::{numerical, telemetry_overhead};
use crate::spans::{self, Recorder};
use crate::stats::median;
use qt_core::gf::{self, ElectronSelfEnergy, PhononSelfEnergy};
use qt_core::scf::Simulation;
use qt_core::sse::{self, SseInputs, SseVariant};
use qt_dist::runner::{distributed_iteration, DistIterationResult};
use qt_dist::schemes::{self, SseDistContext};
use qt_dist::{volume, ElasticTiling, LivenessConfig};
use qt_linalg::Tensor;
use std::time::Instant;

/// The `(TE, TA)` tiling of the timed operation: 2 ranks, split in energy.
const TILING: (usize, usize) = (2, 1);
const RANKS: usize = TILING.0 * TILING.1;
/// Agreement demanded between the distributed and the serial iteration.
const SERIAL_TOLERANCE: f64 = 1e-10;

fn iterate(sim: &Simulation, input: &ScfInput) -> Result<DistIterationResult, String> {
    distributed_iteration(
        &sim.p,
        &sim.dev,
        &sim.em,
        &sim.pm,
        &sim.grids,
        &input.cfg.gf,
        TILING.0,
        TILING.1,
    )
    .map_err(numerical)
}

/// Build the inputs and run the first distributed iteration.
fn cold_start(input: &ScfInput) -> Result<(f64, Simulation), String> {
    let t = Instant::now();
    let sim = input.build()?;
    iterate(&sim, input)?;
    Ok((t.elapsed().as_secs_f64(), sim))
}

/// The serial iteration the distributed one must agree with: both GF
/// phases from `Σ = Π = 0`, then the serial DaCe kernels.
struct Serial {
    current: f64,
    dh: Tensor,
    g_lesser: Tensor,
    g_greater: Tensor,
    phonon: gf::PhononGf,
    d_lesser_pre: Tensor,
    d_greater_pre: Tensor,
}

impl Serial {
    fn new(sim: &Simulation, input: &ScfInput) -> Result<Serial, String> {
        let p = &sim.p;
        let egf = gf::electron_gf_phase(
            &sim.dev,
            &sim.em,
            p,
            &sim.grids,
            &ElectronSelfEnergy::zeros(p),
            &input.cfg.gf,
        )
        .map_err(numerical)?;
        let phonon = gf::phonon_gf_phase(
            &sim.dev,
            &sim.pm,
            p,
            &sim.grids,
            &PhononSelfEnergy::zeros(p),
            &input.cfg.gf,
        )
        .map_err(numerical)?;
        let (d_lesser_pre, d_greater_pre) = sse::preprocess_d(&sim.dev, p, &phonon);
        Ok(Serial {
            current: egf.current,
            dh: sim.em.dh_tensor(&sim.dev),
            g_lesser: egf.g_lesser,
            g_greater: egf.g_greater,
            phonon,
            d_lesser_pre,
            d_greater_pre,
        })
    }

    fn sse_inputs<'a>(&'a self, sim: &'a Simulation) -> SseInputs<'a> {
        SseInputs {
            dev: &sim.dev,
            p: &sim.p,
            grids: &sim.grids,
            dh: &self.dh,
            g_lesser: &self.g_lesser,
            g_greater: &self.g_greater,
            d_lesser_pre: &self.d_lesser_pre,
            d_greater_pre: &self.d_greater_pre,
        }
    }

    fn dist_context<'a>(&'a self, sim: &'a Simulation) -> SseDistContext<'a> {
        SseDistContext {
            p: &sim.p,
            dev: &sim.dev,
            grids: &sim.grids,
            dh: &self.dh,
            g_lesser: &self.g_lesser,
            g_greater: &self.g_greater,
            d_lesser_pre: &self.d_lesser_pre,
            d_greater_pre: &self.d_greater_pre,
        }
    }
}

fn relative_diff(a: &Tensor, b: &Tensor) -> f64 {
    a.max_abs_diff(b) / b.norm().max(1e-300)
}

/// The distributed result against the serial iteration and the exact
/// byte model of the implemented scheme.
fn check_against_serial(
    sim: &Simulation,
    input: &ScfInput,
    dist: &DistIterationResult,
    report: &mut Report,
) -> Result<(), String> {
    let serial = Serial::new(sim, input)?;
    let inputs = serial.sse_inputs(sim);
    let sigma = sse::sigma(&inputs, SseVariant::Dace);
    let pi = sse::pi(&inputs, SseVariant::Dace);
    let worst = [
        (dist.current - serial.current).abs() / serial.current.abs(),
        relative_diff(&dist.sigma.lesser, &sigma.lesser),
        relative_diff(&dist.sigma.greater, &sigma.greater),
        relative_diff(&dist.pi.lesser, &pi.lesser),
        relative_diff(&dist.pi.greater, &pi.greater),
    ]
    .into_iter()
    .fold(0.0, f64::max);
    report.check(worst <= SERIAL_TOLERANCE, || {
        format!("distributed iteration differs from the serial one by {worst:e}")
    });
    let halo = sim.dev.max_neighbor_index_distance();
    let model = volume::dace_measured_bytes(&sim.p, TILING.0, TILING.1, halo);
    report.check(dist.sse_bytes == model, || {
        format!(
            "exchange moved {} B, the exact model says {model} B",
            dist.sse_bytes
        )
    });
    Ok(())
}

/// The untraced pass.
pub fn run(plan: &Plan, report: &mut Report) -> Result<(), String> {
    let input = scf_input("dist_ca2", plan);
    println!("sizes: {:?}, tiling (TE, TA) = {TILING:?}", input.params);
    after_cold_starts(
        plan,
        || cold_start(&input),
        |sim, setup_s| {
            let mut first = None;
            let mut outcomes = Vec::new();
            let ops = timed_ops(plan, |_| {
                let out = iterate(&sim, &input)?;
                outcomes.push((out.current.to_bits(), out.sse_bytes));
                first.get_or_insert(out);
                Ok(1.0)
            })?;
            let first = first.expect("at least one timed operation");
            println!(
                "current: {:e}, exchange bytes: {}",
                first.current, first.sse_bytes
            );
            report.attempted += outcomes.len() as u64;
            report.failed += outcomes.iter().filter(|o| **o != outcomes[0]).count() as u64;
            check_against_serial(&sim, &input, &first, report)?;
            end_to_end(report, setup_s, &ops)
        },
    )
}

/// The traced pass: every exchange scheme on the same pre-computed
/// tensors (the way `qt_dist::schemes` isolates the communication
/// pattern), the serial kernels they are compared with, and the telemetry
/// overhead on the timed operation.
pub fn trace(plan: &Plan, report: &mut Report, rec: &Recorder) -> Result<(), String> {
    let input = scf_input("dist_ca2", plan);
    println!("sizes: {:?}, tiling (TE, TA) = {TILING:?}", input.params);
    probes::model(report, plan);
    probes::linalg(report, plan);
    fresh_thread(|| {
        let (_, sim) = cold_start(&input)?;
        let p = &sim.p;
        let serial = Serial::new(&sim, &input)?;
        let ctx = serial.dist_context(&sim);
        let mut calib = HostCalib::default();
        let tiling = ElasticTiling::new(p, TILING.0, TILING.1);
        let live = LivenessConfig::default();
        let (mut bytes_2x1, mut bytes_1x2, mut bytes_omen, mut max_recv) = (0, 0, 0, 0);
        let mut imbalance = Vec::new();
        // Every exchange is a 0.5-1 s call: half the usual repetitions is
        // what the run can afford, and calls this long repeat well.
        let reps = plan.reps.div_ceil(2);
        for rep in 0..reps as u64 {
            rec.scope("dist.exchanges", None, rep, |op| -> Result<(), String> {
                let (_, _, stats) = rec.leaf("dist.dace_2x1", op, rep, || {
                    schemes::dace_scheme(&ctx, TILING.0, TILING.1)
                });
                (bytes_2x1, max_recv) = (stats.world_bytes, stats.max_rank_recv);
                let (_, _, stats) = rec.leaf("dist.dace_1x2", op, rep, || {
                    schemes::dace_scheme(&ctx, TILING.1, TILING.0)
                });
                bytes_1x2 = stats.world_bytes;
                let (_, _, stats) = rec
                    .leaf("dist.elastic", op, rep, || {
                        schemes::elastic_sse_exchange(&ctx, &tiling, &live)
                    })
                    .map_err(|dead| format!("ranks {dead:?} died in a fault-free world"))?;
                imbalance.push(stats.balance.map_or(1.0, |b| b.imbalance_ratio()));
                // The OMEN scheme is the paper's baseline, not a path the
                // workload runs: two calls of it.
                if rep < 2 {
                    let (_, _, stats) =
                        rec.leaf("dist.omen", op, rep, || schemes::omen_scheme(&ctx, RANKS));
                    bytes_omen = stats.world_bytes;
                }
                Ok(())
            })?;
            calib.sample();
        }
        let all = rec.snapshot();
        let med = |name: &str| median(&spans::durations(&all, name));
        report.set("dist.exchange_dace_2x1_s", med("dist.dace_2x1"));
        report.set("dist.exchange_dace_1x2_s", med("dist.dace_1x2"));
        report.set("dist.exchange_elastic_s", med("dist.elastic"));
        report.set("dist.exchange_omen_s", med("dist.omen"));
        report.set("dist.bytes_dace_2x1", bytes_2x1 as f64);
        report.set("dist.bytes_dace_1x2", bytes_1x2 as f64);
        report.set("dist.bytes_omen", bytes_omen as f64);
        report.set(
            "dist.omen_over_dace_bytes",
            bytes_omen as f64 / bytes_2x1 as f64,
        );
        report.set("dist.max_rank_recv_bytes", max_recv as f64);
        report.set("dist.imbalance_ratio", median(&imbalance));
        let halo = sim.dev.max_neighbor_index_distance();
        let residual = bytes_2x1.abs_diff(volume::dace_measured_bytes(p, TILING.0, TILING.1, halo))
            + bytes_1x2.abs_diff(volume::dace_measured_bytes(p, TILING.1, TILING.0, halo))
            + bytes_omen.abs_diff(volume::omen_measured_bytes(p, RANKS));
        report.set("dist.bytes_model_residual", residual as f64);
        report.check(residual == 0, || {
            format!("measured exchange bytes are {residual} B off the exact models")
        });

        // The serial kernels on the same tensors: the ideal 2-rank exchange
        // takes half their time.
        let inputs = serial.sse_inputs(&sim);
        let pre = probes::time_reps(plan.reps, || {
            std::hint::black_box(sse::preprocess_d(&sim.dev, p, &serial.phonon));
        });
        let sigma = probes::time_reps(reps, || {
            std::hint::black_box(sse::sigma(&inputs, SseVariant::Dace));
        });
        let pi = probes::time_reps(reps, || {
            std::hint::black_box(sse::pi(&inputs, SseVariant::Dace));
        });
        calib.sample();
        report.set("sse.preprocess_d_s", median(&pre));
        report.set("sse.sigma_dace_s", median(&sigma));
        report.set("sse.pi_dace_s", median(&pi));
        report.set(
            "dist.speedup_vs_serial",
            (median(&sigma) + median(&pi)) / med("dist.dace_2x1"),
        );

        // The timed operation, telemetry off and on; the off side also
        // gives the distributed GF phase (iteration minus its exchange).
        let mut iteration_s = Vec::new();
        let overhead = telemetry_overhead(plan.seconds / 5.0, reps.min(2), &mut calib, || {
            let t = Instant::now();
            iterate(&sim, &input)?;
            let s = t.elapsed().as_secs_f64();
            if !qt_telemetry::enabled() {
                iteration_s.push(s);
            }
            Ok(s)
        })?;
        report.attempted += iteration_s.len() as u64;
        report.set("telemetry.overhead_frac", overhead);
        report.set(
            "dist.gf_phase_s",
            median(&iteration_s) - med("dist.dace_2x1"),
        );
        calib.report(report);
        Ok(())
    })
}
