//! Chaos tests at the harness level. The one fault is a rank dying: a
//! scheduled mid-exchange kill must either ride elastic recovery to the
//! fault-free answer, leaving a telemetry report that records the death
//! and passes `check-report --require health`, or complete degraded with
//! an honest coverage report — never hang, never silently drift.
//!
//! The loop-level tests run the whole Born loop (`run_scf_with` with the
//! `qt_dist::DistSse` body): a kill in the second iteration and a
//! cancel-then-resume must both reproduce the uninterrupted distributed
//! loop bit for bit.
//!
//! The kill tests' tile grid is parameterized by `QT_CHAOS_WORLD`
//! (2, 4, or 8 ranks; default 4) so CI can sweep world sizes.

use std::sync::Mutex;

use qt_core::checkpoint::{CheckpointConfig, ScfCheckpoint};
use qt_core::gf::{ElectronSelfEnergy, GfConfig, PhononSelfEnergy};
use qt_core::health::NumericalError;
use qt_core::params::SimParams;
use qt_core::scf::{
    run_scf_with, CancelToken, ScfConfig, ScfError, ScfOptions, ScfResult, Simulation, SsePhase,
};
use qt_core::sse::SseInputs;
use qt_dist::fault::FaultPlan;
use qt_dist::runner::DistIterationResult;
use qt_dist::{
    supervised_iteration, DistContext, DistSse, ElasticIterationResult, ElasticPolicy,
    ElasticTiling,
};

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

/// One supervised iteration on `tiling` under `policy`.
fn iterate(
    sim: &Simulation,
    tiling: &mut ElasticTiling,
    policy: &ElasticPolicy,
) -> ElasticIterationResult {
    let cfg = GfConfig::default();
    let ctx = DistContext::of(sim, &cfg);
    supervised_iteration(&ctx, tiling, policy).unwrap()
}

/// The iteration on the full `te × ta` world.
fn full(
    sim: &Simulation,
    (te, ta): (usize, usize),
    policy: &ElasticPolicy,
) -> ElasticIterationResult {
    iterate(sim, &mut ElasticTiling::new(&sim.p, te, ta), policy)
}

/// The fault-free answer every scenario is compared with.
fn clean(sim: &Simulation, shape: (usize, usize)) -> DistIterationResult {
    full(sim, shape, &ElasticPolicy::default())
        .complete()
        .unwrap()
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
    let faulty = full(&sim, (2, 2), &policy).complete().unwrap();
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
    // rank's death quarantines exactly 1/procs of the electron grid, so
    // the ceiling is set to admit exactly one loss at any world size.
    let policy = ElasticPolicy {
        max_bad_fraction: 1.0 / procs as f64,
        faults: Some(FaultPlan::default().with_kill_at(victim, 3)),
        ..Default::default()
    };
    let el = full(&sim, (te, ta), &policy);

    assert_eq!(el.deaths, vec![victim], "exactly the scheduled rank dies");
    assert!(el.retiles >= 1, "the supervisor must have re-tiled");
    assert!(!el.degraded, "one death out of {procs} must ride recovery");
    assert!(
        el.migrated_units >= 1,
        "only the dead rank's tiles migrate, but they do migrate"
    );
    // Recovery recomputes the migrated tiles from supervisor-held GF
    // state, so the result is bitwise identical to the fault-free run.
    assert_eq!(
        el.result.sigma.lesser.as_slice(),
        clean.sigma.lesser.as_slice()
    );
    assert_eq!(
        el.result.sigma.greater.as_slice(),
        clean.sigma.greater.as_slice()
    );
    assert_eq!(el.result.pi.lesser.as_slice(), clean.pi.lesser.as_slice());
    assert_eq!(el.result.pi.greater.as_slice(), clean.pi.greater.as_slice());
    assert_eq!(el.result.current.to_bits(), clean.current.to_bits());
    // The lost grid points stay on the record even though they recovered,
    // and the elasticity telemetry block carries the event counts.
    assert!(!el.coverage.is_full());
    assert!(el.coverage.bad_fraction() <= policy.max_bad_fraction);
    let rep = qt_telemetry::TelemetryReport::from_current();
    rep.require("elastic.rank_deaths>0").unwrap();
    rep.require("elastic.retile_events>0").unwrap();
    let migrated = rep.counter(qt_telemetry::Counter::ElasticMigratedTiles);
    assert!(migrated as usize >= el.migrated_units);
}

#[test]
fn chaos_recovery_is_deterministic() {
    let _g = lock();
    let sim = fixture();
    let policy = ElasticPolicy {
        faults: Some(FaultPlan::default().with_kill_at(0, 2)),
        ..Default::default()
    };
    let a = full(&sim, world_shape(), &policy);
    let b = full(&sim, world_shape(), &policy);
    assert_eq!(a.deaths, b.deaths);
    assert_eq!(a.migrated_units, b.migrated_units);
    assert_eq!(
        a.result.sigma.lesser.as_slice(),
        b.result.sigma.lesser.as_slice()
    );
    assert_eq!(
        a.result.pi.greater.as_slice(),
        b.result.pi.greater.as_slice()
    );
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
    let mut tiling = ElasticTiling::weighted(&sim.p, te, ta, procs, &vec![0.0; procs]);
    assert_eq!(tiling.units_of(0).len(), procs);
    // Rank 0 owns all units, so its loss quarantines the whole grid —
    // admit that so it rides recovery instead of degrading.
    let policy = ElasticPolicy {
        max_bad_fraction: 1.0,
        faults: Some(FaultPlan::default().with_kill_at(0, 1)),
        ..Default::default()
    };
    let el = iterate(&sim, &mut tiling, &policy);

    assert_eq!(el.deaths, vec![0], "the collapsed owner dies, nobody else");
    assert!(el.retiles >= 1, "its death must force a re-tile");
    assert!(!el.degraded, "recovery must complete undegraded");
    assert_eq!(
        el.migrated_units, procs,
        "all of the dead owner's units migrate to survivors"
    );
    // The retry over the survivor set reproduces the fault-free
    // observables bit for bit.
    assert_eq!(
        el.result.sigma.lesser.as_slice(),
        clean.sigma.lesser.as_slice()
    );
    assert_eq!(
        el.result.sigma.greater.as_slice(),
        clean.sigma.greater.as_slice()
    );
    assert_eq!(el.result.pi.lesser.as_slice(), clean.pi.lesser.as_slice());
    assert_eq!(el.result.pi.greater.as_slice(), clean.pi.greater.as_slice());
    // The survivor exchange still measures balance.
    if procs > 1 {
        assert!(el.result.comm.balance.is_some());
    }
}

#[test]
fn death_past_bad_fraction_ceiling_degrades_instead_of_hanging() {
    let _g = lock();
    let sim = fixture();
    let (te, ta) = world_shape();
    let victim = 0;

    // A zero ceiling makes any loss unrecoverable: the victim's units
    // must be abandoned and the iteration must still complete.
    let policy = ElasticPolicy {
        max_bad_fraction: 0.0,
        faults: Some(FaultPlan::default().with_kill_at(victim, 1)),
        ..Default::default()
    };
    let el = full(&sim, (te, ta), &policy);

    assert!(el.degraded, "an unrecoverable death must degrade, not hang");
    assert_eq!(el.deaths, vec![victim]);
    assert_eq!(el.migrated_units, 0, "abandoned units must not migrate");
    assert!(!el.coverage.is_full());
    assert!(el.coverage.bad_fraction() > 0.0);
    for q in &el.coverage.quarantined {
        assert!(q.grid_index < sim.p.nkz * sim.p.ne);
        assert!(matches!(
            q.error,
            qt_core::health::NumericalError::RankLoss { rank } if rank == victim
        ));
    }
    // Degraded ≠ garbage: the surviving tiles still carry fault-free
    // values; only the abandoned slices are zero-filled.
    let clean = clean(&sim, (te, ta));
    let nonzero = el
        .result
        .sigma
        .lesser
        .as_slice()
        .iter()
        .filter(|z| z.re != 0.0 || z.im != 0.0)
        .count();
    if te * ta > 1 {
        assert!(nonzero > 0, "survivor tiles must be present");
    }
    assert!(
        nonzero
            < clean
                .sigma
                .lesser
                .as_slice()
                .iter()
                .filter(|z| z.re != 0.0 || z.im != 0.0)
                .count(),
        "abandoned tiles must be zero-filled"
    );
    // ...and a caller that takes no degraded answer gets a typed error.
    assert!(el.complete().is_err());
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

    // One death quarantines 1/procs of the grid: admit exactly that.
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
