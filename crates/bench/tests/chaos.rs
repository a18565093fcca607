//! Chaos tests at the harness level, on the one distributed entry point:
//! `run_scf_with` with the `qt_dist::DistSse` body. The one fault is a
//! rank dying, and it has one of two outcomes: a scheduled mid-exchange
//! kill either rides elastic recovery to the fault-free answer, leaving a
//! telemetry report that records the death and passes `check-report
//! --require health`, or ends the exchange at once in a typed `RankLoss`
//! — never a hang, never a silent drift.
//!
//! The kill tests run one Born iteration; the loop-level tests run five:
//! a kill in the second iteration and a cancel-then-resume must both
//! reproduce the uninterrupted distributed loop bit for bit.
//!
//! The kill tests' tile grid is parameterized by `QT_CHAOS_WORLD`
//! (2, 4, or 8 ranks; default 4) so CI can sweep world sizes.

use std::sync::Mutex;

use qt_core::checkpoint::{CheckpointConfig, ScfCheckpoint};
use qt_core::gf::{ElectronSelfEnergy, PhononSelfEnergy};
use qt_core::health::NumericalError;
use qt_core::params::SimParams;
use qt_core::scf::{
    run_scf_with, CancelToken, ScfConfig, ScfError, ScfOptions, ScfResult, Simulation, SsePhase,
};
use qt_core::sse::SseInputs;
use qt_dist::fault::FaultPlan;
use qt_dist::{DistSse, ElasticPolicy, ElasticTiling};
use qt_telemetry::counters::{self, Counter};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(te, ta)` for the world size requested via `QT_CHAOS_WORLD`.
fn world_shape() -> (usize, usize) {
    match std::env::var("QT_CHAOS_WORLD").ok().as_deref() {
        Some("2") => (1, 2),
        Some("8") => (2, 4),
        None | Some("4") => (2, 2),
        Some(other) => panic!("QT_CHAOS_WORLD must be 2, 4, or 8, got {other:?}"),
    }
}

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

/// One Born iteration of the distributed loop on `tiling` under `policy`,
/// and the body after it (deaths, retiles, the last exchange's stats).
fn iterate(
    sim: &Simulation,
    tiling: ElasticTiling,
    policy: ElasticPolicy,
) -> (DistSse, Result<ScfResult, ScfError>) {
    let mut body = DistSse::new(tiling, policy);
    let cfg = ScfConfig {
        max_iterations: 1,
        ..Default::default()
    };
    let opts = ScfOptions {
        sse: Some(&mut body),
        ..Default::default()
    };
    let out = run_scf_with(sim, &cfg, opts);
    (body, out)
}

/// The iteration on the full `te × ta` world.
fn full(
    sim: &Simulation,
    (te, ta): (usize, usize),
    policy: ElasticPolicy,
) -> (DistSse, Result<ScfResult, ScfError>) {
    iterate(sim, ElasticTiling::new(&sim.p, te, ta), policy)
}

/// The fault-free answer every scenario is compared with.
fn clean(sim: &Simulation, shape: (usize, usize)) -> ScfResult {
    full(sim, shape, ElasticPolicy::default()).1.unwrap()
}

/// `f`'s result and the work units the supervisor migrated meanwhile (the
/// `elastic.migrated_tiles` counter, bumped on the calling thread).
fn migrating<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = counters::local(Counter::ElasticMigratedTiles);
    let out = f();
    (out, counters::local(Counter::ElasticMigratedTiles) - before)
}

#[test]
fn faulty_pipeline_reports_health_and_passes_the_gate() {
    let _g = lock();
    qt_telemetry::reset_all();
    qt_telemetry::set_enabled(true);
    let sim = fixture();
    let clean = clean(&sim, (2, 2));
    let policy = ElasticPolicy {
        faults: Some(FaultPlan::default().with_kill_at(3, 3)),
        ..Default::default()
    };
    let faulty = full(&sim, (2, 2), policy).1.unwrap();
    let rel = clean.sigma.lesser.max_abs_diff(&faulty.sigma.lesser)
        / clean.sigma.lesser.norm().max(1e-30);
    assert!(rel <= 1e-10, "faulty run must match fault-free: rel {rel}");

    // The report records the death, and the `--require health` gate
    // (health block present) passes after a JSON roundtrip.
    let rep = qt_telemetry::TelemetryReport::from_current();
    rep.validate().expect("report validates");
    rep.require("elastic.rank_deaths>0")
        .expect("the scheduled kill must be visible as a rank death in the report");
    let back = qt_telemetry::TelemetryReport::from_json(&rep.to_json()).expect("roundtrip");
    back.require("health").expect("health block present");
    assert_eq!(back, rep);
}

#[test]
fn killed_rank_recovers_bitwise_exactly() {
    let _g = lock();
    qt_telemetry::reset_all();
    let sim = fixture();
    let (te, ta) = world_shape();
    let procs = te * ta;
    let victim = procs - 1;

    let clean = clean(&sim, (te, ta));

    // Seeded, deterministic kill: the victim dies on its third SSE send.
    // Survivors detect it, re-tile, and retry on the shrunken world. One
    // rank's death loses exactly 1/procs of the work units, so the
    // ceiling is set to admit exactly one loss at any world size.
    let policy = ElasticPolicy {
        max_bad_fraction: 1.0 / procs as f64,
        faults: Some(FaultPlan::default().with_kill_at(victim, 3)),
        ..Default::default()
    };
    let ((body, faulty), migrated) = migrating(|| full(&sim, (te, ta), policy));

    assert_eq!(body.deaths, vec![victim], "exactly the scheduled rank dies");
    assert!(body.retiles >= 1, "the supervisor must have re-tiled");
    let faulty = faulty.unwrap_or_else(|e| panic!("one death out of {procs}: {e}"));
    assert!(
        migrated >= 1,
        "only the dead rank's tiles migrate, but they do migrate"
    );
    // Recovery recomputes the migrated tiles from supervisor-held GF
    // state, so the result is bitwise identical to the fault-free run.
    assert_same_loop(&faulty, &clean);
    // The elasticity telemetry block carries the event counts.
    let rep = qt_telemetry::TelemetryReport::from_current();
    rep.require("elastic.rank_deaths>0").unwrap();
    rep.require("elastic.retile_events>0").unwrap();
    assert!(rep.counter(Counter::ElasticMigratedTiles) >= migrated);
}

#[test]
fn chaos_recovery_is_deterministic() {
    let _g = lock();
    let sim = fixture();
    let policy = || ElasticPolicy {
        faults: Some(FaultPlan::default().with_kill_at(0, 2)),
        ..Default::default()
    };
    let ((a_body, a), a_moved) = migrating(|| full(&sim, world_shape(), policy()));
    let ((b_body, b), b_moved) = migrating(|| full(&sim, world_shape(), policy()));
    assert_eq!(a_body.deaths, b_body.deaths);
    assert_eq!(a_moved, b_moved);
    // At world 2 the death is past the default ceiling: both runs refuse.
    match (a, b) {
        (Ok(a), Ok(b)) => assert_same_loop(&a, &b),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        _ => panic!("one run recovered and the other did not"),
    }
}

#[test]
fn killed_owner_of_every_unit_falls_back_to_elastic_recovery() {
    let _g = lock();
    qt_telemetry::reset_all();
    let sim = fixture();
    let (te, ta) = world_shape();
    let procs = te * ta;
    let clean = clean(&sim, (te, ta));

    // Collapse every unit onto rank 0 and kill it on its first send: the
    // idle ranks hold no tile and wait on it from the first exchange on,
    // so they must detect the dead owner, surface a typed death, and the
    // supervisor must finish the iteration on the elastic path.
    let tiling = ElasticTiling::weighted(&sim.p, te, ta, procs, &vec![0.0; procs]);
    assert_eq!(tiling.units_of(0).len(), procs);
    // Rank 0 owns all units, so its death loses every one — admit that
    // so it rides recovery instead of ending in `RankLoss`.
    let policy = ElasticPolicy {
        max_bad_fraction: 1.0,
        faults: Some(FaultPlan::default().with_kill_at(0, 1)),
        ..Default::default()
    };
    let ((body, out), migrated) = migrating(|| iterate(&sim, tiling, policy));

    assert_eq!(
        body.deaths,
        vec![0],
        "the collapsed owner dies, nobody else"
    );
    assert!(body.retiles >= 1, "its death must force a re-tile");
    let out = out.expect("recovery must complete");
    assert_eq!(
        migrated, procs as u64,
        "all of the dead owner's units migrate to survivors"
    );
    // The retry over the survivor set reproduces the fault-free
    // observables bit for bit.
    assert_same_loop(&out, &clean);
    // The survivor exchange still measures balance.
    if procs > 1 {
        assert!(body.comm.balance.is_some());
    }
}

#[test]
fn death_past_bad_fraction_ceiling_is_a_rank_loss_not_a_hang() {
    let _g = lock();
    let sim = fixture();
    let (te, ta) = world_shape();
    let victim = 0;

    // A zero ceiling makes any loss unrecoverable: the iteration must end
    // in a typed error, with the victim's units left where they were.
    let policy = ElasticPolicy {
        max_bad_fraction: 0.0,
        faults: Some(FaultPlan::default().with_kill_at(victim, 1)),
        ..Default::default()
    };
    let ((body, out), migrated) = migrating(|| full(&sim, (te, ta), policy));

    match out {
        Err(ScfError::Numerical(NumericalError::RankLoss { rank })) => assert_eq!(rank, victim),
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("an unrecoverable death must not complete"),
    }
    assert_eq!(body.deaths, vec![victim]);
    assert_eq!(migrated, 0, "a refused death's units must not migrate");
}

#[test]
fn refused_death_runs_no_further_exchange() {
    let _g = lock();
    qt_telemetry::reset_all();
    qt_telemetry::set_enabled(true);
    let sim = fixture();
    // The victim dies on its first send and a zero ceiling refuses the
    // death: the failed attempt is the iteration's only exchange.
    let policy = ElasticPolicy {
        max_bad_fraction: 0.0,
        faults: Some(FaultPlan::default().with_kill_at(0, 1)),
        ..Default::default()
    };
    let (body, out) = full(&sim, world_shape(), policy);
    assert!(matches!(
        out,
        Err(ScfError::Numerical(NumericalError::RankLoss { rank: 0 }))
    ));
    assert_eq!(body.retiles, 1);
    let attempts = qt_telemetry::registry::phase("comm/dace_scheme").map_or(0, |s| s.calls);
    assert_eq!(attempts, 1, "no exchange runs after a refused death");
}

/// The `qt_dist` body with a hook that runs before each of its calls
/// (numbered from 1), to arm a fault or cancel mid-loop.
struct Hooked<F: FnMut(usize, &mut DistSse)> {
    body: DistSse,
    calls: usize,
    before: F,
}

impl<F: FnMut(usize, &mut DistSse)> SsePhase for Hooked<F> {
    fn run(
        &mut self,
        inputs: &SseInputs<'_>,
    ) -> Result<(ElectronSelfEnergy, PhononSelfEnergy), NumericalError> {
        self.calls += 1;
        (self.before)(self.calls, &mut self.body);
        self.body.run(inputs)
    }
}

/// Five forced Born iterations (the tolerance is never met).
fn loop_cfg() -> ScfConfig {
    ScfConfig {
        max_iterations: 5,
        tolerance: 0.0,
        ..Default::default()
    }
}

/// The `qt_dist` body on a fresh `te × ta` tiling.
fn body(policy: ElasticPolicy) -> DistSse {
    let (te, ta) = world_shape();
    DistSse::new(ElasticTiling::new(&fixture().p, te, ta), policy)
}

/// The distributed Born loop on a fresh simulation.
fn dist_loop<'a>(sse: &'a mut dyn SsePhase, opts: ScfOptions<'a>) -> Result<ScfResult, ScfError> {
    let sse = Some(sse);
    run_scf_with(&fixture(), &loop_cfg(), ScfOptions { sse, ..opts })
}

fn assert_same_loop(got: &ScfResult, want: &ScfResult) {
    assert_eq!(got.residuals, want.residuals);
    let bits = |r: &ScfResult| {
        r.current_history
            .iter()
            .map(|c| c.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(got), bits(want));
    for (name, a, b) in [
        ("sigma.lesser", &got.sigma.lesser, &want.sigma.lesser),
        ("sigma.greater", &got.sigma.greater, &want.sigma.greater),
        ("pi.lesser", &got.pi.lesser, &want.pi.lesser),
        ("pi.greater", &got.pi.greater, &want.pi.greater),
        ("g_lesser", &got.electron.g_lesser, &want.electron.g_lesser),
    ] {
        assert_eq!(a.as_slice(), b.as_slice(), "{name}");
    }
}

#[test]
fn kill_in_the_second_born_iteration_recovers_bitwise() {
    let _g = lock();
    let (te, ta) = world_shape();
    let procs = te * ta;
    let victim = procs - 1;
    let clean = dist_loop(&mut body(ElasticPolicy::default()), ScfOptions::default()).unwrap();
    assert_eq!(clean.iterations, 5);

    // One death loses 1/procs of the work units: admit exactly that.
    let policy = ElasticPolicy {
        max_bad_fraction: 1.0 / procs as f64,
        ..Default::default()
    };
    let mut killer = Hooked {
        body: body(policy),
        calls: 0,
        before: |call: usize, body: &mut DistSse| {
            body.policy.faults = (call == 2).then(|| FaultPlan::default().with_kill_at(victim, 3));
        },
    };
    let faulty = dist_loop(&mut killer, ScfOptions::default()).unwrap();
    assert_eq!(
        killer.body.deaths,
        vec![victim],
        "exactly the armed rank dies"
    );
    assert!(
        killer.body.retiles >= 1,
        "the supervisor must have re-tiled"
    );
    assert!(!killer.body.tiling.is_survivor(victim));
    assert_eq!(faulty.iterations, clean.iterations);
    assert_same_loop(&faulty, &clean);
}

#[test]
fn cancelled_loop_resumes_bitwise_on_a_fresh_tiling() {
    let _g = lock();
    let uninterrupted =
        dist_loop(&mut body(ElasticPolicy::default()), ScfOptions::default()).unwrap();

    let path = std::env::temp_dir().join(format!("qt-chaos-drain-{}.ckpt", std::process::id()));
    let ckpt = CheckpointConfig {
        path: path.clone(),
        every: 0,
    };
    let token = CancelToken::new();
    let mut canceller = Hooked {
        body: body(ElasticPolicy::default()),
        calls: 0,
        before: |call: usize, _: &mut DistSse| {
            if call == 2 {
                token.cancel();
            }
        },
    };
    let opts = ScfOptions {
        ckpt: Some(&ckpt),
        cancel: Some(token.clone()),
        ..Default::default()
    };
    match dist_loop(&mut canceller, opts) {
        Err(ScfError::Cancelled {
            iteration,
            checkpointed,
        }) => {
            assert_eq!(iteration, 2, "cancelled at the next iteration boundary");
            assert!(checkpointed, "the drain checkpoint is written");
        }
        other => panic!("expected Cancelled, got {:?}", other.map(|_| "ok")),
    }
    let ck = ScfCheckpoint::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(ck.iteration, 2);

    let resume = ScfOptions {
        resume: Some(ck),
        ..Default::default()
    };
    let resumed = dist_loop(&mut body(ElasticPolicy::default()), resume).unwrap();
    assert_eq!(resumed.iterations, 3, "only the remaining iterations run");
    assert_same_loop(&resumed, &uninterrupted);
}
