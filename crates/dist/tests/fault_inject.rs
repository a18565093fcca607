//! Fault tests at the distributed-loop level: a scheduled rank kill that
//! the supervisor may not recover from must end the Born loop in a typed
//! `RankLoss`, with no further exchange. Kills that do recover are
//! covered by the chaos suite in `qt-bench`.

use qt_core::health::NumericalError;
use qt_core::params::SimParams;
use qt_core::scf::{run_scf_with, ScfConfig, ScfError, ScfOptions, Simulation};
use qt_dist::fault::FaultPlan;
use qt_dist::{DistSse, ElasticPolicy, ElasticTiling};

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

#[test]
fn exhausted_retry_bound_narrows_to_an_error_not_to_zeros() {
    // One scheduled kill and no retile budget: the supervisor detects the
    // death, may not retry, and the exchange ends in `RankLoss`.
    let sim = fixture();
    let victim = 3;
    let policy = ElasticPolicy {
        max_retiles: 0,
        faults: Some(FaultPlan::default().with_kill_at(victim, 3)),
        ..Default::default()
    };
    let mut body = DistSse::new(ElasticTiling::new(&sim.p, 2, 2), policy);
    let cfg = ScfConfig {
        max_iterations: 1,
        ..Default::default()
    };
    let opts = ScfOptions {
        sse: Some(&mut body),
        ..Default::default()
    };
    let out = run_scf_with(&sim, &cfg, opts);
    assert_eq!(body.deaths, vec![victim]);
    assert_eq!(body.retiles, 1, "one detection, no retry");
    match out {
        Err(ScfError::Numerical(NumericalError::RankLoss { rank })) => assert_eq!(rank, victim),
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("an unrecovered death must not narrow to a complete result"),
    }
}
