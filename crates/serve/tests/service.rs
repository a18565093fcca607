//! End-to-end tests of the sweep service: warm sharing, backpressure,
//! deadlines, degradation, circuit breaking, and drain-on-shutdown.

use std::time::Duration;

use qt_core::params::SimParams;
use qt_core::scf::ScfConfig;
use qt_serve::{ServeConfig, Service, SubmitError, SweepRequest, SweepStatus, VariantSpec};
use qt_telemetry::counters::{self, Counter};
use qt_telemetry::recorder::{self, JOURNAL};

fn tiny_params() -> SimParams {
    SimParams {
        nkz: 2,
        nqz: 2,
        ne: 10,
        nw: 2,
        na: 8,
        nb: 3,
        norb: 2,
        bnum: 4,
    }
}

fn variant(max_iterations: usize, tolerance: f64) -> VariantSpec {
    VariantSpec {
        params: tiny_params(),
        emin: -1.2,
        emax: 1.2,
        cfg: ScfConfig {
            max_iterations,
            tolerance,
            ..Default::default()
        },
    }
}

fn quick_service(cfg: ServeConfig) -> Service {
    Service::start(vec![variant(40, 1e-6)], cfg).expect("valid test variant")
}

#[test]
fn sweep_completes_and_later_points_warm_start() {
    let svc = quick_service(ServeConfig {
        workers: 1,
        ..Default::default()
    });
    let ticket = svc
        .submit(SweepRequest::new(0, vec![0.10, 0.12, 0.14]))
        .unwrap();
    let resp = ticket.wait().expect("service answers");
    let SweepStatus::Completed { points } = resp.status else {
        panic!("sweep should complete: {:?}", resp.status);
    };
    assert_eq!(points.len(), 3);
    assert!(points.iter().all(|p| p.converged));
    assert!(points.iter().all(|p| p.current.is_finite()));
    assert!(!points[0].warm_started, "first point has no neighbor");
    assert!(points[1].warm_started && points[2].warm_started);
    // A warm continuation must not cost more iterations than the cold
    // opener at a nearby bias.
    assert!(points[1].iterations <= points[0].iterations);
    svc.shutdown();
}

#[test]
fn full_queue_rejects_with_retry_after() {
    // One worker, and a pool too small for two concurrent solves, so
    // the first job occupies the worker while the queue fills.
    let svc = quick_service(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        pool_slots: 1,
        slots_per_solve: 1,
        ..Default::default()
    });
    let t1 = svc
        .submit(SweepRequest::new(0, vec![0.1, 0.11, 0.12]))
        .unwrap();
    // Stuff the queue past capacity: with one slot reserved, a second
    // un-dequeued submit must bounce. The worker may dequeue the first
    // job quickly, so allow a couple of fillers before asserting.
    let mut rejected = None;
    let mut fillers = Vec::new();
    for _ in 0..3 {
        match svc.submit(SweepRequest::new(0, vec![0.1])) {
            Ok(t) => fillers.push(t),
            Err(e) => {
                rejected = Some(e);
                break;
            }
        }
    }
    match rejected.expect("a submit past capacity must be rejected") {
        SubmitError::QueueFull { retry_after } => {
            assert!(retry_after > Duration::ZERO, "hint must be actionable");
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // Everything admitted still gets answered.
    assert!(matches!(
        t1.wait().unwrap().status,
        SweepStatus::Completed { .. }
    ));
    for t in fillers {
        assert!(matches!(
            t.wait().unwrap().status,
            SweepStatus::Completed { .. }
        ));
    }
    svc.shutdown();
}

#[test]
fn unknown_variant_is_rejected() {
    let svc = quick_service(ServeConfig::default());
    assert_eq!(
        svc.submit(SweepRequest::new(9, vec![0.1])).err(),
        Some(SubmitError::UnknownVariant { variant: 9 })
    );
    svc.shutdown();
}

/// Satellite: warm-start determinism under degradation. A poisoned warm
/// seed cannot converge, so the service falls back to a cold solve —
/// and that answer must match a never-warmed reference. The cold
/// fallback runs the *identical* deterministic solve as the reference
/// (same seed state Σ=Π=0, same config), so the agreement tolerance is
/// bitwise zero, not an approximate bound.
#[test]
fn poisoned_warm_start_degrades_to_the_cold_answer() {
    recorder::switch(JOURNAL, true);
    let fallbacks0 = counters::total(Counter::ServiceWarmFallbacks);

    // Reference: same sweep on a service that never warm-starts the
    // second point (fresh service, single-point sweeps → no neighbors).
    let reference = {
        let svc = quick_service(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        let t = svc.submit(SweepRequest::new(0, vec![0.14])).unwrap();
        let SweepStatus::Completed { points } = t.wait().unwrap().status else {
            panic!("reference sweep must complete");
        };
        svc.shutdown();
        points[0].clone()
    };

    let svc = quick_service(ServeConfig {
        workers: 1,
        ..Default::default()
    });
    let req = SweepRequest {
        poison_warm_point: Some(1),
        ..SweepRequest::new(0, vec![0.10, 0.14])
    };
    let t = svc.submit(req).unwrap();
    let SweepStatus::Completed { points } = t.wait().unwrap().status else {
        panic!("degraded sweep must still complete");
    };
    let degraded = &points[1];
    assert!(degraded.warm_started, "the poisoned seed was attempted");
    assert!(degraded.degraded_to_cold, "and fell back to cold");
    assert!(degraded.converged);
    assert_eq!(
        degraded.current, reference.current,
        "cold fallback must reproduce the cold reference bitwise"
    );
    assert_eq!(degraded.retries, 0, "degradation never burns retry budget");

    // The degradation is observable: counter bumped and event journaled.
    assert!(counters::total(Counter::ServiceWarmFallbacks) > fallbacks0);
    let events = qt_telemetry::journal::drain();
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            qt_telemetry::EventKind::WarmFallback { point: 1, .. }
        )),
        "WarmFallback must be journaled"
    );
    recorder::switch(JOURNAL, false);
    svc.shutdown();
}

/// A chaos rank kill rides the sweep: the probe's elastic recovery
/// retires the dead rank from the pool, and every answer stays bitwise
/// equal to the same sweep submitted without the kill.
#[test]
fn chaos_rank_kill_is_bitwise_invisible_and_retires_the_rank() {
    let biases = vec![0.10, 0.12, 0.14];
    let sweep = |chaos_kill_rank: Option<usize>| {
        let svc = quick_service(ServeConfig {
            workers: 1,
            pool_slots: 4,
            ..Default::default()
        });
        let req = SweepRequest {
            chaos_kill_rank,
            ..SweepRequest::new(0, biases.clone())
        };
        let SweepStatus::Completed { points } = svc.submit(req).unwrap().wait().unwrap().status
        else {
            panic!("sweep must complete (kill: {chaos_kill_rank:?})");
        };
        let capacity = svc.pool().capacity();
        svc.shutdown();
        (points, capacity)
    };
    let (reference, full) = sweep(None);
    let (killed, shrunk) = sweep(Some(1));
    assert_eq!(full, 4, "no kill, no retirement");
    assert_eq!(shrunk, 3, "the killed rank is retired from the pool");
    assert_eq!(killed.len(), reference.len());
    for (a, b) in reference.iter().zip(&killed) {
        assert_eq!(
            a.current.to_bits(),
            b.current.to_bits(),
            "rank kill changed the answer at bias {} V",
            a.bias
        );
    }
}

#[test]
fn deadline_expires_without_hanging() {
    let svc = quick_service(ServeConfig {
        workers: 1,
        ..Default::default()
    });
    let req = SweepRequest {
        deadline: Some(Duration::from_millis(1)),
        ..SweepRequest::new(0, vec![0.1, 0.2, 0.3, 0.4])
    };
    let t = svc.submit(req).unwrap();
    let resp = t
        .wait_timeout(Duration::from_secs(120))
        .expect("an expired request must still be answered");
    match resp.status {
        SweepStatus::DeadlineExpired { completed } => {
            // The 1ms budget cannot fit four solves.
            assert!(completed.len() < 4);
        }
        // A very fast machine could finish a point before the watchdog
        // fires, but never all four within a millisecond.
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }
    svc.shutdown();
}

#[test]
fn repeated_failures_open_the_breaker() {
    // tolerance = 0 never converges → every request fails after its
    // retries, which must open the variant's breaker.
    let svc = Service::start(
        vec![variant(2, 0.0)],
        ServeConfig {
            workers: 1,
            max_retries: 0,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(3600),
            ..Default::default()
        },
    )
    .expect("valid test variant");
    let opens0 = counters::total(Counter::ServiceBreakerOpens);
    for _ in 0..2 {
        let t = svc.submit(SweepRequest::new(0, vec![0.1])).unwrap();
        assert!(matches!(
            t.wait().unwrap().status,
            SweepStatus::Failed { .. }
        ));
    }
    match svc.submit(SweepRequest::new(0, vec![0.1])).err() {
        Some(SubmitError::BreakerOpen { retry_after }) => {
            assert!(retry_after > Duration::ZERO);
        }
        other => panic!("expected BreakerOpen, got {other:?}"),
    }
    assert!(counters::total(Counter::ServiceBreakerOpens) > opens0);
    svc.shutdown();
}

#[test]
fn shutdown_drains_in_flight_sweeps_with_resumable_checkpoints() {
    let dir = std::env::temp_dir().join(format!("qt-serve-drain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let svc = quick_service(ServeConfig {
        workers: 1,
        drain_dir: Some(dir.clone()),
        ..Default::default()
    });
    // Long sweep the shutdown will interrupt.
    let t = svc
        .submit(SweepRequest::new(
            0,
            (0..20).map(|i| 0.1 + 0.01 * i as f64).collect(),
        ))
        .unwrap();
    // Give the worker a moment to start solving, then drain.
    std::thread::sleep(Duration::from_millis(50));
    svc.shutdown();
    let resp = t.wait().expect("drained request must still be answered");
    match resp.status {
        SweepStatus::Drained {
            completed,
            checkpoints,
        } => {
            assert!(completed.len() < 20, "shutdown interrupted the sweep");
            // The interrupted point (if any was in flight past iteration
            // 0) left a resumable QTCKPT02 file.
            for path in &checkpoints {
                let ck = qt_core::checkpoint::ScfCheckpoint::load(path)
                    .expect("drain checkpoint must be loadable");
                assert!(ck.iteration >= 1);
            }
        }
        // The worker may have been between jobs; then the queue path
        // answers ShutDown. Both are valid drain outcomes, but with a
        // 50ms head start on a 20-point sweep the drain path is the
        // expected one.
        SweepStatus::ShutDown => {}
        other => panic!("expected Drained/ShutDown, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_finite_biases_are_rejected_at_admission() {
    let svc = quick_service(ServeConfig {
        workers: 1,
        ..Default::default()
    });
    // Before the admission check, a NaN bias sailed into the worker and
    // panicked the warm store's nearest-neighbor comparison. It must be
    // a typed submit error instead — and must not consume queue depth.
    assert_eq!(
        svc.submit(SweepRequest::new(0, vec![0.1, f64::NAN, 0.2]))
            .err(),
        Some(SubmitError::NonFiniteBias { index: 1 })
    );
    assert_eq!(
        svc.submit(SweepRequest::new(0, vec![f64::INFINITY])).err(),
        Some(SubmitError::NonFiniteBias { index: 0 })
    );
    // The service stays healthy for well-formed requests afterwards.
    let t = svc.submit(SweepRequest::new(0, vec![0.1])).unwrap();
    assert!(matches!(
        t.wait().unwrap().status,
        SweepStatus::Completed { .. }
    ));
    svc.shutdown();
}

#[test]
fn invalid_variant_registrations_are_typed_errors() {
    // bnum does not divide na: the old path panicked inside
    // `Simulation::new`; registration must now fail closed.
    let bad = VariantSpec {
        params: SimParams {
            bnum: 3,
            ..tiny_params()
        },
        emin: -1.2,
        emax: 1.2,
        cfg: ScfConfig::default(),
    };
    match Service::start(vec![variant(40, 1e-6), bad], ServeConfig::default()) {
        Err(SubmitError::InvalidVariant { variant, reason }) => {
            assert_eq!(variant, 1);
            assert!(!reason.is_empty());
        }
        other => panic!("expected InvalidVariant, got {:?}", other.err()),
    }
    // An inverted energy window is caught the same way.
    let inverted = VariantSpec {
        params: tiny_params(),
        emin: 1.2,
        emax: -1.2,
        cfg: ScfConfig::default(),
    };
    assert!(matches!(
        Service::start(vec![inverted], ServeConfig::default()),
        Err(SubmitError::InvalidVariant { variant: 0, .. })
    ));
}
