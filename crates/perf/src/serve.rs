//! `serve_sweep`: a closed loop of 2 clients, each waiting for its reply
//! before sending the next sweep (callers of a sweep service wait for the
//! answer), against a 2-worker `qt_serve::Service` holding two scenario
//! variants. Many small warm-started, converge-to-tolerance solves under
//! concurrency: kernels are a small share, per-solve overhead and
//! iterations-to-converge dominate.

use crate::harness::{end_to_end, HostCalib};
use crate::inputs::{serve_requests, serve_scenarios, warmup_sweeps, Plan, Scale, SweepSpec};
use crate::probes;
use crate::report::Report;
use crate::scf::{layer_pass, telemetry_overhead};
use crate::spans::{self, Recorder, SpanId};
use crate::stats::{median, quantile, Op};
use crate::{host, inputs};
use qt_core::scf::{run_scf, run_scf_with, ScfConfig, ScfOptions, WarmStart};
use qt_scenario::BuiltScenario;
use qt_serve::{PointResult, ServeConfig, Service, SweepRequest, SweepStatus, VariantSpec};
use qt_telemetry::counters;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Blocking clients, and service workers: the 2 cores of the host.
const CLIENTS: usize = 2;
/// Requests generated per run; the clients walk the list in order.
const REQUEST_POOL: usize = 4096;
/// Agreement demanded between a served point and an in-process cold
/// solve of the same bias, as a multiple of the residual tolerance both
/// converged to: 1e-5 relative for the benchmark's 1e-7 scenarios.
const COLD_TOLERANCE_FACTOR: f64 = 100.0;

fn load_variants(scale: Scale) -> Result<Vec<BuiltScenario>, String> {
    serve_scenarios(scale)
        .iter()
        .map(|(file, text)| qt_scenario::load(text).map_err(|e| format!("{file}: {e}")))
        .collect()
}

fn variant_spec(built: &BuiltScenario) -> VariantSpec {
    let grid = &built.scenario.grid;
    VariantSpec {
        params: built.params,
        emin: grid.emin,
        emax: grid.emax,
        cfg: built.config_at(0.0, built.scenario.sweep.temperatures[0]),
    }
}

/// What came back for one request.
struct Outcome {
    spec: usize,
    /// `Some` when the request was admitted and `Completed`.
    points: Option<Vec<PointResult>>,
}

impl Outcome {
    fn ok(&self) -> bool {
        self.points
            .as_ref()
            .is_some_and(|pts| pts.iter().all(|p| p.converged))
    }
}

/// `f` under a leaf span of `parent`, or bare in the untraced pass.
fn spanned<T>(
    parent: Option<(&Recorder, SpanId, u64)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match parent {
        Some((rec, id, op)) => rec.leaf(name, id, op, f),
        None => f(),
    }
}

/// Submit one sweep and wait for its reply, optionally under spans
/// `serve.request` → `serve.submit`, `serve.wait`. `None` for a request
/// that was refused or did not complete.
fn request(
    svc: &Service,
    spec: &SweepSpec,
    rec: Option<(&Recorder, u64)>,
) -> Option<Vec<PointResult>> {
    let req = SweepRequest::new(spec.variant, spec.biases.clone());
    let call = |parent| {
        let ticket = spanned(parent, "serve.submit", || svc.submit(req)).ok()?;
        let response = spanned(parent, "serve.wait", || ticket.wait())?;
        match response.status {
            SweepStatus::Completed { points } => Some(points),
            _ => None,
        }
    };
    match rec {
        Some((rec, op)) => rec.scope("serve.request", None, op, |id| call(Some((rec, id, op)))),
        None => call(None),
    }
}

/// One cold start: load both scenario files, start the service, and run
/// the set-up sweeps (one per variant, concurrently) that fill the
/// boundary caches, the workers' arenas and the warm stores.
fn cold_start(scale: Scale) -> Result<(f64, Service, Vec<BuiltScenario>), String> {
    let t = Instant::now();
    let built = load_variants(scale)?;
    let svc = Service::start(
        built.iter().map(variant_spec).collect(),
        ServeConfig {
            workers: CLIENTS,
            pool_slots: CLIENTS,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("service refused the benchmark's variants: {e}"))?;
    let warm = warmup_sweeps(scale);
    let all_ok = std::thread::scope(|s| {
        let clients: Vec<_> = warm
            .iter()
            .map(|spec| s.spawn(|| request(&svc, spec, None).is_some()))
            .collect();
        clients
            .into_iter()
            .all(|c| c.join().expect("set-up client panicked"))
    });
    if !all_ok {
        svc.shutdown();
        return Err("a set-up sweep was refused or did not complete".into());
    }
    Ok((t.elapsed().as_secs_f64(), svc, built))
}

/// The samples of one closed-loop stretch.
#[derive(Default)]
struct Stretch {
    ops: Vec<Op>,
    outcomes: Vec<Outcome>,
}

/// Run the closed loop until both `seconds` and `min_requests` are met.
/// `next` walks the shared request list across stretches.
fn closed_loop(
    svc: &Service,
    requests: &[SweepSpec],
    next: &AtomicUsize,
    seconds: f64,
    min_requests: usize,
    rec: Option<&Recorder>,
) -> Stretch {
    let done = AtomicUsize::new(0);
    // A failed read mid-loop becomes a NaN metric, which fails the run.
    let cpu = || host::cpu_seconds().unwrap_or(f64::NAN);
    let cpu0 = cpu();
    let t0 = Instant::now();
    let per_client: Vec<Stretch> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Stretch::default();
                    while done.load(Ordering::SeqCst) < min_requests
                        || t0.elapsed().as_secs_f64() < seconds
                    {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let spec = i % requests.len();
                        let start = Instant::now();
                        let points = request(svc, &requests[spec], rec.map(|r| (r, i as u64)));
                        mine.ops.push(Op {
                            dur_s: start.elapsed().as_secs_f64(),
                            end_s: t0.elapsed().as_secs_f64(),
                            cpu_s: cpu() - cpu0,
                            work: points.as_ref().map_or(0.0, |p| p.len() as f64),
                        });
                        mine.outcomes.push(Outcome { spec, points });
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Stretch::default();
    for mut c in per_client {
        all.ops.append(&mut c.ops);
        all.outcomes.append(&mut c.outcomes);
    }
    all
}

/// A tenth of the distinct (variant, bias) pairs served, each solved cold
/// in-process and compared with every served answer for that pair.
fn check_against_cold(
    built: &[BuiltScenario],
    requests: &[SweepSpec],
    outcomes: &[Outcome],
    report: &mut Report,
) -> Result<(), String> {
    // Keyed by (variant, bias in mV): the grid is exact in hundredths.
    let mut served: BTreeMap<(usize, i64), Vec<f64>> = BTreeMap::new();
    for o in outcomes {
        for p in o.points.iter().flatten() {
            let key = (requests[o.spec].variant, (p.bias * 1000.0).round() as i64);
            served.entry(key).or_default().push(p.current);
        }
    }
    let tolerance = COLD_TOLERANCE_FACTOR
        * built
            .iter()
            .map(|b| b.scenario.solver.tolerance)
            .fold(0.0, f64::max);
    let mut worst = 0.0f64;
    let mut compared = 0;
    for ((variant, millivolt), currents) in served.iter().step_by(10) {
        let b = &built[*variant];
        let bias = *millivolt as f64 / 1000.0;
        let cfg = b.config_at(bias, b.scenario.sweep.temperatures[0]);
        let cold = run_scf(&b.sim, &cfg).map_err(|e| format!("cold check solve: {e}"))?;
        report.check(cold.converged, || {
            format!("cold solve at {bias} V did not converge")
        });
        let reference = *cold.current_history.last().expect("at least one iteration");
        for c in currents {
            worst = worst.max((c - reference).abs() / reference.abs());
            compared += 1;
        }
    }
    println!("cold check: {compared} served points, worst relative difference {worst:e}");
    report.check(compared > 0 && worst <= tolerance, || {
        format!("served currents differ from cold solves by {worst:e} ({compared} compared)")
    });
    Ok(())
}

fn count_requests(outcomes: &[Outcome], report: &mut Report) {
    let points: Vec<&PointResult> = outcomes
        .iter()
        .flat_map(|o| o.points.iter().flatten())
        .collect();
    let iterations: usize = points.iter().map(|p| p.iterations).sum();
    println!(
        "served: {} requests, {} points, {iterations} Born iterations",
        outcomes.len(),
        points.len()
    );
    report.attempted += outcomes.len() as u64;
    report.failed += outcomes.iter().filter(|o| !o.ok()).count() as u64;
}

/// The untraced pass.
pub fn run(plan: &Plan, report: &mut Report) -> Result<(), String> {
    let requests = serve_requests(plan.seed, REQUEST_POOL);
    println!(
        "sizes: {} variants, {CLIENTS} clients, {CLIENTS} workers, sweeps of 3-5 of {} grid biases",
        inputs::VARIANTS,
        inputs::bias_grid().len()
    );
    let mut setup_s = Vec::with_capacity(plan.setups);
    for _ in 1..plan.setups {
        let (cold_s, svc, _) = cold_start(plan.scale)?;
        svc.shutdown();
        setup_s.push(cold_s);
    }
    let (cold_s, svc, built) = cold_start(plan.scale)?;
    setup_s.push(cold_s);
    let next = AtomicUsize::new(0);
    let stretch = closed_loop(&svc, &requests, &next, plan.seconds, plan.min_ops * 4, None);
    svc.shutdown();
    count_requests(&stretch.outcomes, report);
    check_against_cold(&built, &requests, &stretch.outcomes, report)?;
    end_to_end(report, &setup_s, &stretch.ops)
}

/// Process-wide service counters, read around the traced stretches.
#[derive(Clone, Copy)]
struct ServiceCounts {
    admitted: u64,
    rejected: u64,
    warm_starts: u64,
    warm_fallbacks: u64,
    retries: u64,
}

impl ServiceCounts {
    fn now() -> ServiceCounts {
        ServiceCounts {
            admitted: counters::total_service_admitted(),
            rejected: counters::total_service_rejected(),
            warm_starts: counters::total_service_warm_starts(),
            warm_fallbacks: counters::total_service_warm_fallbacks(),
            retries: counters::total_service_retries(),
        }
    }
}

/// `scenario.load_s`: seconds per `qt_scenario::load` call.
fn scenario_load(plan: &Plan, report: &mut Report) -> Result<(), String> {
    const ROUNDS: usize = 10;
    let mut failure = None;
    let secs = probes::time_reps(plan.reps, || {
        for _ in 0..ROUNDS {
            if let Err(e) = load_variants(plan.scale) {
                failure = Some(e);
            }
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let per_load = median(&secs) / (ROUNDS * inputs::VARIANTS) as f64;
    report.set("scenario.load_s", per_load);
    Ok(())
}

/// Born iterations to 1e-6, cold and seeded from the neighbouring bias:
/// the two counts `work_per_s` of this workload follows.
fn iterations_to_converge(built: &BuiltScenario, report: &mut Report) -> Result<(), String> {
    let grid = inputs::bias_grid();
    let (here, neighbour) = (grid[grid.len() / 2], grid[grid.len() / 2 + 1]);
    let at = |bias: f64| ScfConfig {
        tolerance: 1e-6,
        ..built.config_at(bias, built.scenario.sweep.temperatures[0])
    };
    let cold = run_scf(&built.sim, &at(here)).map_err(|e| format!("cold count solve: {e}"))?;
    let warm = run_scf_with(
        &built.sim,
        &at(neighbour),
        ScfOptions {
            warm: Some(WarmStart {
                sigma: cold.sigma.clone(),
                pi: cold.pi.clone(),
            }),
            ..ScfOptions::default()
        },
    )
    .map_err(|e| format!("warm count solve: {e}"))?;
    report.check(cold.converged && warm.converged, || {
        "iteration-count solves did not converge".into()
    });
    report.set("scf.iters_to_converge", cold.iterations as f64);
    report.set("scf.warm_iters_to_converge", warm.iterations as f64);
    Ok(())
}

/// The traced pass: spanned closed-loop stretches on fresh service
/// instances, then the layer pass on the first variant's device.
pub fn trace(plan: &Plan, report: &mut Report, rec: &Recorder) -> Result<(), String> {
    let requests = serve_requests(plan.seed, REQUEST_POOL);
    let next = AtomicUsize::new(0);
    let mut calib = HostCalib::default();
    probes::model(report, plan);
    probes::linalg(report, plan);
    scenario_load(plan, report)?;
    calib.sample();

    let instances = plan.reps.min(3);
    let counts0 = ServiceCounts::now();
    let mut outcomes = Vec::new();
    let mut shutdown_s = Vec::new();
    for _ in 0..instances {
        let (_, svc, _) = cold_start(plan.scale)?;
        let stretch = closed_loop(
            &svc,
            &requests,
            &next,
            plan.seconds / 3.0 / instances as f64,
            plan.min_ops,
            Some(rec),
        );
        outcomes.extend(stretch.outcomes);
        let t = Instant::now();
        svc.shutdown();
        shutdown_s.push(t.elapsed().as_secs_f64());
        calib.sample();
    }
    let counts = ServiceCounts::now();
    count_requests(&outcomes, report);

    let all = rec.snapshot();
    let latencies = spans::durations(&all, "serve.request");
    let points: Vec<&PointResult> = outcomes
        .iter()
        .flat_map(|o| o.points.iter().flatten())
        .collect();
    let per_point: Vec<f64> = all
        .iter()
        .filter(|s| s.name == "serve.request")
        .map(|s| s.duration() / requests[s.op_id as usize % requests.len()].biases.len() as f64)
        .collect();
    let frac = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let warm_starts = counts.warm_starts - counts0.warm_starts;
    let (admitted, rejected) = (
        counts.admitted - counts0.admitted,
        counts.rejected - counts0.rejected,
    );
    report.set("serve.req_p50_s", median(&latencies));
    report.set("serve.req_p90_s", quantile(&latencies, 0.9));
    report.set("serve.req_count", latencies.len() as f64);
    report.set(
        "serve.submit_s",
        median(&spans::durations(&all, "serve.submit")),
    );
    report.set("serve.point_s", median(&per_point));
    report.set(
        "serve.iters_per_point",
        points.iter().map(|p| p.iterations as f64).sum::<f64>() / points.len().max(1) as f64,
    );
    report.set(
        "serve.warm_hit_frac",
        frac(
            points.iter().filter(|p| p.warm_started).count() as u64,
            points.len() as u64,
        ),
    );
    report.set(
        "serve.warm_fallback_frac",
        frac(counts.warm_fallbacks - counts0.warm_fallbacks, warm_starts),
    );
    report.set("serve.rejected_frac", frac(rejected, admitted + rejected));
    report.set("serve.retries", (counts.retries - counts0.retries) as f64);
    report.set("serve.shutdown_s", median(&shutdown_s));

    // Telemetry overhead, one more instance: wall seconds per Born
    // iteration served, over short alternating stretches. Per iteration, not
    // per request or point: iterations-to-converge fall as the warm store
    // fills, and a handful of requests per side cannot average that out.
    let (_, svc, built) = cold_start(plan.scale)?;
    let window_s = plan.seconds / 12.0;
    let overhead = telemetry_overhead(
        plan.seconds / 4.0,
        plan.reps.div_ceil(2).min(2),
        &mut calib,
        || {
            let t = Instant::now();
            let stretch = closed_loop(&svc, &requests, &next, window_s, plan.min_ops / 2, None);
            let elapsed = t.elapsed().as_secs_f64();
            let iterations: usize = stretch
                .outcomes
                .iter()
                .flat_map(|o| o.points.iter().flatten())
                .map(|p| p.iterations)
                .sum();
            (stretch.outcomes.iter().all(Outcome::ok) && iterations > 0)
                .then(|| elapsed / iterations as f64)
                .ok_or_else(|| "a request failed in the overhead stretch".to_string())
        },
    );
    svc.shutdown();
    report.set("telemetry.overhead_frac", overhead?);

    // The SCF layers under the service, on the first variant's device at
    // the middle of the bias grid.
    let first = &built[0];
    let grid = inputs::bias_grid();
    let cfg = first.config_at(grid[grid.len() / 2], first.scenario.sweep.temperatures[0]);
    let build = || {
        qt_scenario::load(serve_scenarios(plan.scale)[0].1)
            .map(|b| b.sim)
            .map_err(|e| e.to_string())
    };
    layer_pass(
        &build,
        &cfg,
        plan,
        plan.seconds / 6.0,
        report,
        rec,
        &mut calib,
    )?;
    iterations_to_converge(first, report)?;
    calib.report(report);
    Ok(())
}
