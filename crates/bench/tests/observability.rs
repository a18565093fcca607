//! Flight-recorder integration: journaling must not perturb the physics,
//! the report must round-trip with every optional block populated at
//! once, and postmortem dumps must classify file corruption with typed
//! errors.
//!
//! Telemetry state is process-global, so every test takes `LOCK` (same
//! pattern as `telemetry.rs`).

use std::sync::Mutex;

use qt_core::params::SimParams;
use qt_core::scf::{run_scf, ScfConfig, Simulation};
use qt_telemetry::postmortem::{Postmortem, PostmortemError};
use qt_telemetry::recorder::{self, JOURNAL, SERIES};
use qt_telemetry::report::{ConvergencePoint, ModelResidual, RankComm};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_params() -> SimParams {
    SimParams {
        nkz: 2,
        nqz: 2,
        ne: 8,
        nw: 2,
        na: 8,
        nb: 3,
        norb: 2,
        bnum: 4,
    }
}

/// The flight recorder and the metrics sampler observe the run without
/// touching it: every observable of an SCF with journaling and series
/// sampling enabled is bitwise identical to the disabled run.
#[test]
fn journaling_on_and_off_are_bitwise_identical() {
    let _g = lock();
    let sim = Simulation::new(small_params(), -1.2, 1.2);
    let cfg = ScfConfig {
        max_iterations: 2,
        ..Default::default()
    };

    qt_telemetry::reset_all();
    qt_telemetry::set_enabled(true);
    recorder::switch(JOURNAL, false);
    recorder::switch(SERIES, false);
    let off = run_scf(&sim, &cfg).expect("SCF with journaling off");

    qt_telemetry::reset_all();
    recorder::switch(JOURNAL, true);
    recorder::switch(SERIES, true);
    let on = run_scf(&sim, &cfg).expect("SCF with journaling on");
    assert!(
        qt_telemetry::journal::event_count() > 0,
        "the journaled run must actually record events"
    );

    assert_eq!(on.iterations, off.iterations);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&on.current_history), bits(&off.current_history));
    assert_eq!(
        on.electron.g_lesser.as_slice(),
        off.electron.g_lesser.as_slice()
    );
    assert_eq!(
        on.electron.g_greater.as_slice(),
        off.electron.g_greater.as_slice()
    );
    assert_eq!(on.sigma.lesser.as_slice(), off.sigma.lesser.as_slice());
    assert_eq!(on.sigma.greater.as_slice(), off.sigma.greater.as_slice());

    recorder::switch(JOURNAL, false);
    recorder::switch(SERIES, false);
}

/// A report carrying every optional block at once — warmup, health,
/// elasticity, balance, series, journal — survives the JSON round trip
/// field-for-field and still validates.
#[test]
fn report_with_every_optional_block_roundtrips() {
    let _g = lock();
    qt_telemetry::reset_all();
    qt_telemetry::set_enabled(true);
    recorder::switch(JOURNAL, true);
    recorder::switch(SERIES, true);
    let sim = Simulation::new(small_params(), -1.2, 1.2);
    let cfg = ScfConfig {
        max_iterations: 3,
        ..Default::default()
    };
    let out = run_scf(&sim, &cfg).expect("SCF");

    let mut rep = qt_telemetry::TelemetryReport::from_current();
    for r in &out.trajectory {
        rep.convergence.push(ConvergencePoint {
            iteration: r.iteration,
            residual: r.residual,
            mixing: r.mixing,
            wall_ms: r.wall_seconds * 1e3,
            current: r.current,
            alloc_bytes: r.alloc_bytes,
        });
    }
    rep.warmup = qt_telemetry::report::WarmupStats::from_convergence(&rep.convergence);
    rep.residuals
        .push(ModelResidual::new("test_residual", 2.0, 2.0, true));
    rep.comm.push(RankComm {
        rank: 0,
        sent_bytes: 10,
        recv_bytes: 12,
    });
    rep.set_balance(vec![1.0, 2.0, 1.5], 1.4);

    assert!(rep.warmup.is_some(), "3 iterations give a warm sample");
    for block in ["health", "elasticity", "balance"] {
        rep.require(block).unwrap();
    }
    assert!(
        rep.series.as_ref().is_some_and(|s| !s.samples.is_empty()),
        "series sampling was on: the block must carry samples"
    );
    assert!(
        rep.journal.as_ref().is_some_and(|j| j.events > 0),
        "journaling was on: the block must carry events"
    );

    rep.validate().expect("fully-populated report validates");
    let back = qt_telemetry::TelemetryReport::from_json(&rep.to_json()).expect("roundtrip");
    assert_eq!(back, rep);

    recorder::switch(JOURNAL, false);
    recorder::switch(SERIES, false);
}

/// `Postmortem::load` classifies on-disk corruption the same way the PR 5
/// checkpoint loader does: garbage and truncation are `NotJson`, wrong
/// shapes are `NotAPostmortem`, future versions are refused by number,
/// and a missing file surfaces the I/O error.
#[test]
fn postmortem_file_corruption_is_classified() {
    let _g = lock();
    qt_telemetry::reset_all();
    qt_telemetry::set_enabled(true);
    recorder::switch(JOURNAL, true);
    qt_telemetry::journal::emit(qt_telemetry::EventKind::RankDeath { rank: 1 });
    let pm = Postmortem::capture("rank_death", "integration test", None);
    recorder::switch(JOURNAL, false);

    let dir = std::env::temp_dir();
    let path = dir.join(format!("qt-pm-{}.json", std::process::id()));
    pm.save(&path).expect("save postmortem");
    let back = Postmortem::load(&path).expect("clean file loads");
    assert_eq!(back.reason, "rank_death");
    assert!(back
        .events
        .iter()
        .any(|e| matches!(e.kind, qt_telemetry::EventKind::RankDeath { rank: 1 })));
    assert!(back.timeline().contains("rank 1 declared dead"));

    // Truncation mid-record breaks the JSON layer, not the schema layer.
    let clean = std::fs::read_to_string(&path).expect("read back");
    std::fs::write(&path, &clean[..clean.len() / 2]).expect("truncate");
    assert!(matches!(
        Postmortem::load(&path),
        Err(PostmortemError::NotJson(_))
    ));

    std::fs::write(&path, "not a postmortem at all").expect("garbage");
    assert!(matches!(
        Postmortem::load(&path),
        Err(PostmortemError::NotJson(_))
    ));

    std::fs::write(&path, "{\"reason\": \"x\"}").expect("schema-less");
    assert!(matches!(
        Postmortem::load(&path),
        Err(PostmortemError::NotAPostmortem)
    ));

    std::fs::write(&path, "{\"version\": 99, \"reason\": \"x\"}").expect("future");
    assert!(matches!(
        Postmortem::load(&path),
        Err(PostmortemError::UnsupportedVersion { found: 99, .. })
    ));

    std::fs::remove_file(&path).expect("cleanup");
    assert!(matches!(
        Postmortem::load(&path),
        Err(PostmortemError::Io(_))
    ));
}
