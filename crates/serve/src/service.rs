//! The sweep service: admission control, worker loop, and shutdown drain.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender};
use qt_core::checkpoint::CheckpointConfig;
use qt_core::scf::{
    run_scf_with, Anderson, CancelToken, ScfError, ScfOptions, Simulation, WarmStart,
};
use qt_dist::RankPool;
use qt_telemetry::{counters, journal, recorder, Counter, EventKind};

use crate::breaker::CircuitBreaker;
use crate::config::{
    PointResult, ServeConfig, SubmitError, SweepRequest, SweepResponse, SweepStatus, SweepTicket,
    VariantSpec,
};
use crate::warm::WarmStore;
use crate::watchdog::Watchdog;

/// One registered variant at runtime: its spec, the shared simulation
/// (one boundary cache serving every request of the variant), and the
/// warm-start store.
struct VariantRuntime {
    spec: VariantSpec,
    sim: Simulation,
    warm: WarmStore,
}

struct Job {
    id: u64,
    req: SweepRequest,
    resp: Sender<SweepResponse>,
}

/// State shared between the submit path, the workers, and shutdown.
struct Shared {
    cfg: ServeConfig,
    variants: Vec<VariantRuntime>,
    pool: RankPool,
    /// Requests admitted but not yet dequeued — the explicit bound the
    /// unbounded transport channel doesn't give us.
    depth: AtomicUsize,
    draining: AtomicBool,
    breaker: Mutex<CircuitBreaker>,
    /// Cancel tokens of in-flight sweeps, for the shutdown drain.
    active: Mutex<Vec<(u64, CancelToken)>>,
}

/// The running service. Dropping it without [`Service::shutdown`] lets
/// workers finish the queue normally; `shutdown` drains instead.
pub struct Service {
    shared: Arc<Shared>,
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Watchdog,
    next_id: AtomicU64,
}

impl Service {
    /// Build the simulations and start the worker + watchdog threads.
    /// Each variant's parameters and energy window go through the
    /// fallible builder ([`Simulation::try_new`]); a bad registration is
    /// a typed [`SubmitError::InvalidVariant`], not a panic — variant
    /// specs come from user configuration (scenario files, service
    /// callers), never from trusted code.
    pub fn start(variants: Vec<VariantSpec>, cfg: ServeConfig) -> Result<Service, SubmitError> {
        let variants = variants
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let sim = Simulation::try_new(spec.params, spec.emin, spec.emax)
                    .map_err(|reason| SubmitError::InvalidVariant { variant: i, reason })?;
                Ok(VariantRuntime {
                    sim,
                    warm: WarmStore::with_capacity(cfg.warm_capacity),
                    spec,
                })
            })
            .collect::<Result<Vec<_>, SubmitError>>()?;
        let breaker =
            CircuitBreaker::new(variants.len(), cfg.breaker_threshold, cfg.breaker_cooldown);
        let pool = RankPool::new(cfg.pool_slots);
        let shared = Arc::new(Shared {
            variants,
            pool,
            depth: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            breaker: Mutex::new(breaker),
            active: Mutex::new(Vec::new()),
            cfg,
        });
        let (tx, rx) = crossbeam::channel::unbounded::<Job>();
        let watchdog = Watchdog::spawn();
        let workers = (0..shared.cfg.workers.max(1))
            .map(|w| {
                let shared = shared.clone();
                let rx = rx.clone();
                let wd = watchdog.handle.clone();
                std::thread::Builder::new()
                    .name(format!("qt-serve-worker-{w}"))
                    .spawn(move || worker_loop(shared, rx, wd))
                    .expect("spawn service worker")
            })
            .collect();
        Ok(Service {
            shared,
            tx: Some(tx),
            workers,
            watchdog,
            next_id: AtomicU64::new(1),
        })
    }

    /// The shared rank pool (for observability and tests).
    pub fn pool(&self) -> &RankPool {
        &self.shared.pool
    }

    /// Admit a sweep or reject it with explicit backpressure. Admission
    /// is strictly bounded: at most `queue_capacity` requests may sit
    /// between submit and dequeue.
    pub fn submit(&self, req: SweepRequest) -> Result<SweepTicket, SubmitError> {
        let id = self.next_id.fetch_add(1, SeqCst);
        let reject = |err: SubmitError| {
            counters::add(Counter::ServiceRejected, 1);
            journal::emit(EventKind::RequestRejected { request: id });
            Err(err)
        };
        if req.variant >= self.shared.variants.len() {
            return reject(SubmitError::UnknownVariant {
                variant: req.variant,
            });
        }
        // A NaN/infinite bias would poison the warm store's nearest-
        // neighbor search and the contact occupations deep inside the
        // worker; reject it here, at the trust boundary, instead.
        if let Some(index) = req.biases.iter().position(|b| !b.is_finite()) {
            return reject(SubmitError::NonFiniteBias { index });
        }
        if self.shared.draining.load(SeqCst) {
            return reject(SubmitError::ShuttingDown);
        }
        if let Err(retry_after) = self
            .shared
            .breaker
            .lock()
            .unwrap()
            .check(req.variant, Instant::now())
        {
            return reject(SubmitError::BreakerOpen { retry_after });
        }
        // Reserve a queue slot; back off with a depth-scaled hint when
        // the queue is at capacity.
        let cap = self.shared.cfg.queue_capacity;
        if self
            .shared
            .depth
            .fetch_update(SeqCst, SeqCst, |d| (d < cap).then_some(d + 1))
            .is_err()
        {
            let hint = self.shared.cfg.retry_after_hint;
            return reject(SubmitError::QueueFull {
                retry_after: hint * (cap as u32).max(1),
            });
        }
        counters::add(Counter::ServiceAdmitted, 1);
        journal::emit(EventKind::RequestAdmitted { request: id });
        let (resp_tx, resp_rx) = crossbeam::channel::unbounded();
        let job = Job {
            id,
            req,
            resp: resp_tx,
        };
        // The send only fails after shutdown dropped the receiver side;
        // answer the caller directly in that narrow race.
        if let Some(tx) = &self.tx {
            if tx.send(job).is_err() {
                self.shared.depth.fetch_sub(1, SeqCst);
                return Err(SubmitError::ShuttingDown);
            }
        } else {
            self.shared.depth.fetch_sub(1, SeqCst);
            return Err(SubmitError::ShuttingDown);
        }
        Ok(SweepTicket { id, rx: resp_rx })
    }

    /// Drain and stop: reject new submits, cancel in-flight sweeps (they
    /// write QTCKPT02 drain checkpoints when `drain_dir` is configured and
    /// answer [`SweepStatus::Drained`]), answer still-queued requests
    /// with [`SweepStatus::ShutDown`], and join every thread.
    pub fn shutdown(mut self) {
        self.shared.draining.store(true, SeqCst);
        for (_, token) in self.shared.active.lock().unwrap().iter() {
            token.cancel();
        }
        // Disconnect the queue so workers exit once it is drained.
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.watchdog.stop();
    }
}

fn worker_loop(shared: Arc<Shared>, rx: Receiver<Job>, wd: crate::watchdog::WatchdogHandle) {
    // One Anderson history per worker, its buffers reused by every solve
    // (each solve starts it empty, so answers do not depend on which
    // worker ran a point).
    let mut accel = Anderson::new();
    while let Ok(job) = rx.recv() {
        shared.depth.fetch_sub(1, SeqCst);
        if shared.draining.load(SeqCst) {
            let _ = job.resp.send(SweepResponse {
                id: job.id,
                status: SweepStatus::ShutDown,
            });
            continue;
        }
        recorder::set_unit(job.id as i64);
        let status = {
            // While it solves a request this worker is a top-level compute
            // thread and takes its core out of the `par` budget.
            let _lane = qt_linalg::par::lane();
            run_sweep(&shared, &wd, &job, &mut accel)
        };
        recorder::set_unit(-1);
        settle(&shared, &job, &status);
        let _ = job.resp.send(SweepResponse { id: job.id, status });
    }
}

/// Settle counters, journal, and the circuit breaker for a finished
/// request. Deadline and drain outcomes are availability events, not
/// evidence against the variant — only `Failed` feeds the breaker.
fn settle(shared: &Shared, job: &Job, status: &SweepStatus) {
    match status {
        SweepStatus::Completed { points } => {
            counters::add(Counter::ServiceCompleted, 1);
            journal::emit(EventKind::RequestDone {
                request: job.id,
                degraded_points: points.iter().filter(|p| p.degraded_to_cold).count() as u64,
            });
            shared
                .breaker
                .lock()
                .unwrap()
                .record_success(job.req.variant);
        }
        SweepStatus::Failed { .. } => {
            counters::add(Counter::ServiceFailed, 1);
            let tripped = shared
                .breaker
                .lock()
                .unwrap()
                .record_failure(job.req.variant, Instant::now());
            if tripped {
                counters::add(Counter::ServiceBreakerOpens, 1);
                journal::emit(EventKind::BreakerOpen {
                    variant: job.req.variant as u64,
                });
            }
        }
        SweepStatus::DeadlineExpired { .. }
        | SweepStatus::Drained { .. }
        | SweepStatus::ShutDown => {}
    }
}

/// Why a point stopped short of an answer.
enum PointStop {
    /// Cooperative cancellation; carries the drain checkpoint path if
    /// one was written.
    Cancelled {
        checkpoint: Option<std::path::PathBuf>,
    },
    /// Out of retry budget (or structurally unservable).
    Failed(String),
}

fn run_sweep(
    shared: &Shared,
    wd: &crate::watchdog::WatchdogHandle,
    job: &Job,
    accel: &mut Anderson,
) -> SweepStatus {
    let _span = qt_telemetry::Span::enter_global("serve/sweep");
    let vr = &shared.variants[job.req.variant];
    let token = CancelToken::new();
    let expired = Arc::new(AtomicBool::new(false));
    let _deadline_guard = job
        .req
        .deadline
        .map(|d| wd.register(job.id, Instant::now() + d, token.clone(), expired.clone()));
    shared.active.lock().unwrap().push((job.id, token.clone()));
    // A shutdown signalled between the drain-cancel pass and this push
    // would miss the token; re-check so the sweep still stops promptly.
    if shared.draining.load(SeqCst) {
        token.cancel();
    }

    if let Some(victim) = job.req.chaos_kill_rank {
        chaos_probe(shared, vr, victim);
    }

    let mut completed: Vec<PointResult> = Vec::new();
    let mut stop: Option<(usize, PointStop)> = None;
    for (i, &bias) in job.req.biases.iter().enumerate() {
        match solve_point(shared, vr, job, i, bias, &token, accel) {
            Ok(point) => completed.push(point),
            Err(why) => {
                stop = Some((i, why));
                break;
            }
        }
    }
    shared
        .active
        .lock()
        .unwrap()
        .retain(|(id, _)| *id != job.id);
    match stop {
        None => SweepStatus::Completed { points: completed },
        Some((_, PointStop::Failed(error))) => SweepStatus::Failed { error, completed },
        Some((_, PointStop::Cancelled { .. })) if expired.load(SeqCst) => {
            SweepStatus::DeadlineExpired { completed }
        }
        Some((i, PointStop::Cancelled { checkpoint })) => {
            // Shutdown drain: account the checkpointed point.
            let mut checkpoints = Vec::new();
            if let Some(path) = checkpoint {
                counters::add(Counter::ServiceDrained, 1);
                journal::emit(EventKind::DrainCheckpoint {
                    request: job.id,
                    point: i as u64,
                });
                checkpoints.push(path);
            }
            SweepStatus::Drained {
                completed,
                checkpoints,
            }
        }
    }
}

/// Corrupt a warm seed (chaos hook): every self-energy entry becomes NaN,
/// so the poisoned solve's first GF phase fails its finiteness guards at
/// every grid point and the solve must take the validated cold-fallback
/// path. (A merely far seed is no longer enough: the Anderson-accelerated
/// loop recovers from a seed scaled by 1e9 within the iteration budget.)
fn poison_seed(seed: &mut WarmStart) {
    for t in [
        &mut seed.sigma.lesser,
        &mut seed.sigma.greater,
        &mut seed.pi.lesser,
        &mut seed.pi.greater,
    ] {
        t.as_mut_slice().fill(qt_linalg::c64(f64::NAN, f64::NAN));
    }
}

fn solve_point(
    shared: &Shared,
    vr: &VariantRuntime,
    job: &Job,
    index: usize,
    bias: f64,
    token: &CancelToken,
    accel: &mut Anderson,
) -> Result<PointResult, PointStop> {
    // Lease compute slots; a pool shrunk (by retirements) below one
    // solve's needs can never serve again — fail fast, don't hang.
    let slots = shared.cfg.slots_per_solve.max(1);
    let Some(_lease) = shared
        .pool
        .lease_timeout(slots, Duration::from_secs(600))
        .filter(|_| !token.is_cancelled())
    else {
        if token.is_cancelled() {
            return Err(PointStop::Cancelled { checkpoint: None });
        }
        return Err(PointStop::Failed(format!(
            "rank pool cannot serve {slots} slots (capacity {})",
            shared.pool.capacity()
        )));
    };
    let mut cfg = vr.spec.cfg;
    cfg.gf.contacts.mu_left = bias / 2.0;
    cfg.gf.contacts.mu_right = -bias / 2.0;
    let ckpt = shared.cfg.drain_dir.as_ref().map(|dir| CheckpointConfig {
        path: dir.join(format!("request-{}-point-{index}.ckpt", job.id)),
        every: 0, // drain-only: written on cancellation, never mid-loop
    });

    // Warm attempt: seed from the nearest solved bias. Warm failures
    // (non-convergence or numerical error) degrade to the cold path
    // below WITHOUT burning retry budget — a bad seed is the service's
    // fault, not the variant's.
    let mut degraded_to_cold = false;
    let mut warm_attempted = false;
    if let Some((_, seed)) = vr.warm.nearest(bias) {
        warm_attempted = true;
        counters::add(Counter::ServiceWarmStarts, 1);
        let mut seed = (*seed).clone();
        if job.req.poison_warm_point == Some(index) {
            poison_seed(&mut seed);
        }
        let warm_run = run_scf_with(
            &vr.sim,
            &cfg,
            ScfOptions {
                ckpt: ckpt.as_ref(),
                warm: Some(seed),
                cancel: Some(token.clone()),
                accel: Some(&mut *accel),
                ..Default::default()
            },
        );
        match warm_run {
            Ok(res) if res.converged => {
                return Ok(finish_point(vr, bias, res, true, false, 0));
            }
            Err(ScfError::Cancelled { checkpointed, .. }) => {
                return Err(PointStop::Cancelled {
                    checkpoint: checkpointed.then(|| ckpt.as_ref().unwrap().path.clone()),
                });
            }
            // Validation failed: journal the degradation and fall
            // through to the cold solve.
            Ok(_) | Err(_) => {
                degraded_to_cold = true;
                counters::add(Counter::ServiceWarmFallbacks, 1);
                journal::emit(EventKind::WarmFallback {
                    request: job.id,
                    point: index as u64,
                });
            }
        }
    }

    // Cold path with retry + exponential backoff.
    let mut retries = 0u32;
    loop {
        let cold_run = run_scf_with(
            &vr.sim,
            &cfg,
            ScfOptions {
                ckpt: ckpt.as_ref(),
                cancel: Some(token.clone()),
                accel: Some(&mut *accel),
                ..Default::default()
            },
        );
        let error = match cold_run {
            Ok(res) if res.converged => {
                return Ok(finish_point(
                    vr,
                    bias,
                    res,
                    warm_attempted,
                    degraded_to_cold,
                    retries,
                ));
            }
            Ok(res) => format!(
                "did not converge in {} iterations (residual {:?})",
                res.iterations,
                res.residuals.last()
            ),
            Err(ScfError::Cancelled { checkpointed, .. }) => {
                return Err(PointStop::Cancelled {
                    checkpoint: checkpointed.then(|| ckpt.as_ref().unwrap().path.clone()),
                });
            }
            Err(e) => e.to_string(),
        };
        if retries >= shared.cfg.max_retries {
            return Err(PointStop::Failed(format!(
                "bias {bias} V failed after {retries} retries: {error}"
            )));
        }
        let backoff = shared.cfg.retry_backoff * 2u32.saturating_pow(retries);
        retries += 1;
        counters::add(Counter::ServiceRetries, 1);
        std::thread::sleep(backoff);
    }
}

/// Deposit the converged state into the warm store and build the
/// point's result record.
fn finish_point(
    vr: &VariantRuntime,
    bias: f64,
    res: qt_core::scf::ScfResult,
    warm_started: bool,
    degraded_to_cold: bool,
    retries: u32,
) -> PointResult {
    let point = PointResult {
        bias,
        current: res.current_history.last().copied().unwrap_or(0.0),
        iterations: res.iterations,
        converged: res.converged,
        warm_started,
        degraded_to_cold,
        retries,
    };
    vr.warm.deposit(
        bias,
        Arc::new(WarmStart {
            sigma: res.sigma,
            pi: res.pi,
        }),
    );
    point
}

/// Chaos hook: one Born iteration of the distributed loop with a seeded
/// rank kill, run as a health probe of the pool's world. Exercises the
/// heartbeat → death → retile recovery end-to-end (its events land in
/// the same journal as the sweep; the ceiling admits the one lost work
/// unit) and retires the dead ranks from the pool, whether the exchange
/// recovered or ended in `RankLoss`. The sweep's numbers are untouched:
/// the probe's GF phases share the variant's boundary cache, which is
/// bit-neutral, and its self-energies are dropped.
fn chaos_probe(shared: &Shared, vr: &VariantRuntime, victim: usize) {
    use qt_core::health::NumericalError;
    use qt_core::scf::{run_scf_with, ScfConfig, ScfError, ScfOptions};
    use qt_dist::{DistSse, ElasticPolicy, ElasticTiling};
    let procs = shared.cfg.pool_slots.max(2);
    let (te, ta) = if procs.is_multiple_of(2) {
        (2, procs / 2)
    } else {
        (1, procs)
    };
    let plan = qt_dist::fault::FaultPlan::default().with_kill_at(victim % procs, 3);
    let policy = ElasticPolicy {
        max_bad_fraction: 1.0 / procs as f64,
        faults: Some(plan),
        ..Default::default()
    };
    let mut body = DistSse::new(ElasticTiling::new(&vr.sim.p, te, ta), policy);
    let cfg = ScfConfig {
        max_iterations: 1,
        ..vr.spec.cfg
    };
    let opts = ScfOptions {
        sse: Some(&mut body),
        ..Default::default()
    };
    let out = run_scf_with(&vr.sim, &cfg, opts);
    // An unrecovered death ends the probe in `RankLoss`, but it happened.
    shared.pool.retire(body.deaths.len());
    match out {
        Ok(_) | Err(ScfError::Numerical(NumericalError::RankLoss { .. })) => {}
        Err(e) => eprintln!("qt-serve: chaos probe failed outright: {e}"),
    }
}
