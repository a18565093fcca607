//! Chaos tests: the distributed iteration must survive a seeded schedule
//! of dropped, corrupted, and delayed messages plus a stalled rank, and
//! still produce the fault-free answer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use qt_core::gf::GfConfig;
use qt_core::health::NumericalError;
use qt_core::params::SimParams;
use qt_core::scf::Simulation;
use qt_dist::comm::run_world;
use qt_dist::fault::{FaultPlan, RetryPolicy};
use qt_dist::runner::DistIterationResult;
use qt_dist::{
    supervised_iteration, DistContext, ElasticIterationResult, ElasticPolicy, ElasticTiling,
};
use qt_linalg::{c64, Complex64};
use qt_telemetry::counters::{self, Counter};

fn fixture() -> Simulation {
    let p = SimParams {
        nkz: 2,
        nqz: 2,
        ne: 12,
        nw: 2,
        na: 12,
        nb: 3,
        norb: 2,
        bnum: 4,
    };
    Simulation::new(p, -1.2, 1.2)
}

/// One supervised iteration on the full 2×2 world.
fn iterate(sim: &Simulation, policy: &ElasticPolicy) -> ElasticIterationResult {
    let cfg = GfConfig::default();
    let ctx = DistContext::of(sim, &cfg);
    supervised_iteration(&ctx, &mut ElasticTiling::new(&sim.p, 2, 2), policy).unwrap()
}

/// The iteration under `faults` (`None`: the clean run), as the
/// fault-free entry points narrow it.
fn complete(sim: &Simulation, faults: Option<FaultPlan>) -> DistIterationResult {
    let policy = ElasticPolicy {
        faults,
        ..Default::default()
    };
    iterate(sim, &policy).complete().unwrap()
}

/// Drops + corruption + a stalled rank: the ISSUE's headline scenario.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_drops(150)
        .with_corruption(100)
        .with_delays(50)
        .with_stalled_rank(1, Duration::from_millis(20))
}

#[test]
fn faulty_iteration_matches_fault_free_run() {
    let sim = fixture();
    let clean = complete(&sim, None);
    let retries0 = counters::total(Counter::HealthCommRetries);
    let faulty = complete(&sim, Some(chaos_plan(2024)));
    // guarantee_delivery retransmits the exact payload, so the results are
    // bitwise identical — well inside the 1e-10 acceptance bound.
    for (name, a, b) in [
        ("sigma lesser", &clean.sigma.lesser, &faulty.sigma.lesser),
        ("sigma greater", &clean.sigma.greater, &faulty.sigma.greater),
        ("pi lesser", &clean.pi.lesser, &faulty.pi.lesser),
        ("pi greater", &clean.pi.greater, &faulty.pi.greater),
    ] {
        let rel = a.max_abs_diff(b) / a.norm().max(1e-30);
        assert!(rel <= 1e-10, "{name}: rel {rel}");
    }
    // Faults actually fired: the protocol retried, and retransmissions
    // cost extra wire bytes on top of the clean volume.
    assert!(
        counters::total(Counter::HealthCommRetries) > retries0,
        "chaos plan must trigger retries"
    );
    assert!(
        faulty.sse_bytes > clean.sse_bytes,
        "retransmissions must cost bytes: faulty {} vs clean {}",
        faulty.sse_bytes,
        clean.sse_bytes
    );
}

#[test]
fn faulty_runs_are_deterministic() {
    let sim = fixture();
    let a = complete(&sim, Some(chaos_plan(7)));
    let b = complete(&sim, Some(chaos_plan(7)));
    assert_eq!(a.sigma.lesser.as_slice(), b.sigma.lesser.as_slice());
    assert_eq!(a.sigma.greater.as_slice(), b.sigma.greater.as_slice());
    assert_eq!(
        a.comm.rank_sent, b.comm.rank_sent,
        "the fault schedule (and thus the retransmission traffic) is a pure function of the seed"
    );
}

#[test]
fn different_seeds_change_the_traffic() {
    let sim = fixture();
    let bytes = |seed| complete(&sim, Some(chaos_plan(seed))).sse_bytes;
    assert_ne!(bytes(1), bytes(2));
}

#[test]
fn exhausted_retry_bound_narrows_to_an_error_not_to_zeros() {
    // One scheduled kill and no retile budget: the supervisor detects the
    // death, may not retry, and completes fully degraded. The narrowing
    // the fault-free entry points use must refuse that result.
    let sim = fixture();
    let victim = 3;
    let policy = ElasticPolicy {
        max_retiles: 0,
        faults: Some(FaultPlan::new(42).with_kill_at(victim, 3)),
        ..Default::default()
    };
    let el = iterate(&sim, &policy);
    assert!(el.degraded);
    assert_eq!(el.deaths, vec![victim]);
    let zero = |t: &qt_linalg::Tensor| t.as_slice().iter().all(|z| *z == Complex64::ZERO);
    assert!(zero(&el.result.sigma.lesser) && zero(&el.result.pi.greater));
    match el.complete() {
        Err(NumericalError::RankLoss { rank }) => assert_eq!(rank, victim),
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("a zero-filled Σ≷/Π≷ must not narrow to a complete result"),
    }
}

#[test]
fn collectives_survive_heavy_faults() {
    // Broadcast + allreduce + alltoallv under a 30% fault rate still
    // produce exact results on every rank.
    let plan = FaultPlan::new(11).with_drops(200).with_corruption(100);
    let out = run_world(4, Some(plan), |comm| {
        let b = comm.bcast(0, (comm.rank() == 0).then(|| vec![c64(2.5, 0.0); 3]), 1);
        let r = comm.allreduce_sum(vec![c64(1.0, comm.rank() as f64)], 2);
        let sendbufs = (0..4)
            .map(|dst| vec![c64(comm.rank() as f64, dst as f64); 2])
            .collect();
        let a = comm.alltoallv(sendbufs, 3);
        comm.barrier();
        let a_ok = (0..4).all(|src| a[src][0] == c64(src as f64, comm.rank() as f64));
        (b[0], r[0], a_ok)
    });
    for (b, r, a_ok) in out {
        assert_eq!(b, c64(2.5, 0.0));
        assert_eq!(r, c64(4.0, 6.0));
        assert!(a_ok);
    }
}

#[test]
fn retry_exhaustion_panics_when_delivery_not_guaranteed() {
    // Everything drops and the sender is only allowed two attempts: the
    // bounded-retry protocol must give up loudly, not hang.
    let plan = FaultPlan::new(3).with_drops(1000).with_retry(RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_micros(50),
        recv_timeout: Duration::from_millis(20),
        guarantee_delivery: false,
    });
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_world(2, Some(plan), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 9, vec![c64(1.0, 0.0)]);
            } else {
                comm.recv(0, 9);
            }
        })
    }));
    assert!(result.is_err(), "exhausted retries must surface as a panic");
}
