//! Fault tests at the distributed-iteration level: a scheduled rank kill
//! that the supervisor may not recover from must narrow to a typed error,
//! never to zero-filled observables. Kills that do recover are covered by
//! the chaos suite in `qt-bench`.

use qt_core::gf::GfConfig;
use qt_core::health::NumericalError;
use qt_core::params::SimParams;
use qt_core::scf::Simulation;
use qt_dist::fault::FaultPlan;
use qt_dist::{
    supervised_iteration, DistContext, ElasticIterationResult, ElasticPolicy, ElasticTiling,
};
use qt_linalg::Complex64;

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

#[test]
fn exhausted_retry_bound_narrows_to_an_error_not_to_zeros() {
    // One scheduled kill and no retile budget: the supervisor detects the
    // death, may not retry, and completes fully degraded. The narrowing
    // the fault-free entry points use must refuse that result.
    let sim = fixture();
    let victim = 3;
    let policy = ElasticPolicy {
        max_retiles: 0,
        faults: Some(FaultPlan::default().with_kill_at(victim, 3)),
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
