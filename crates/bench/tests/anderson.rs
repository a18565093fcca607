//! The Anderson-accelerated Born loop against the linear one over the
//! scenario corpus: every scenario is solved cold at its first sweep point
//! and warm-started at the next one (its first bias + 0.05 V when the sweep
//! has a single point), once with linear mixing and once with
//! `ScfOptions::accel`. Both converge, the currents agree within 100× the
//! scenario's tolerance, the accelerated loop never needs more iterations,
//! and the same grid points are quarantined.
//!
//! Currents compare against the scenario's current scale (the larger of
//! the two linear currents): a zero-bias point's current is the round-off
//! of cancelling in- and out-flows, which no relative bound can measure.

use qt_core::health::CoverageReport;
use qt_core::scf::{run_scf_with, Anderson, ScfOptions, ScfResult, WarmStart};

fn quarantined(c: &CoverageReport) -> Vec<usize> {
    c.quarantined.iter().map(|q| q.grid_index).collect()
}

fn current(r: &ScfResult) -> f64 {
    *r.current_history.last().expect("at least one iteration")
}

#[test]
fn accelerated_born_loop_matches_linear_over_the_corpus() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("the scenario corpus is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 5, "the corpus has five scenarios");
    let mut acc = Anderson::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable scenario");
        let built = qt_scenario::load(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let name = built.scenario.name.clone();
        let points = built.sweep_points();
        let (cold_bias, temperature) = points[0];
        let (warm_bias, warm_t) = points
            .get(1)
            .copied()
            .unwrap_or((cold_bias + 0.05, temperature));
        let cold_cfg = built.config_at(cold_bias, temperature);
        let warm_cfg = built.config_at(warm_bias, warm_t);
        // Cold then warm, linear (`None`) or accelerated.
        let sweep = |accel: Option<&mut Anderson>| {
            let mode = if accel.is_some() {
                "accelerated"
            } else {
                "linear"
            };
            let mut accel = accel;
            let cold = run_scf_with(
                &built.sim,
                &cold_cfg,
                ScfOptions {
                    accel: accel.as_deref_mut(),
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{name}: {mode} cold solve: {e}"));
            let warm = run_scf_with(
                &built.sim,
                &warm_cfg,
                ScfOptions {
                    warm: Some(WarmStart {
                        sigma: cold.sigma.clone(),
                        pi: cold.pi.clone(),
                    }),
                    accel,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{name}: {mode} warm solve: {e}"));
            [cold, warm]
        };
        let linear = sweep(None);
        let accelerated = sweep(Some(&mut acc));
        let tolerance = 100.0 * built.scenario.solver.tolerance;
        let scale = linear.iter().map(|r| current(r).abs()).fold(0.0, f64::max);
        for (point, (lin, fast)) in ["cold", "warm"].iter().zip(linear.iter().zip(&accelerated)) {
            let what = format!("{name} {point}");
            println!(
                "{what}: {} linear vs {} accelerated iterations",
                lin.iterations, fast.iterations
            );
            assert!(lin.converged, "{what}: the linear loop converges");
            assert!(fast.converged, "{what}: the accelerated loop converges");
            let (a, b) = (current(fast), current(lin));
            assert!(
                (a - b).abs() <= tolerance * scale,
                "{what}: accelerated current {a:e} vs linear {b:e} (scale {scale:e})"
            );
            assert!(
                fast.iterations <= lin.iterations,
                "{what}: accelerated {} iterations vs linear {}",
                fast.iterations,
                lin.iterations
            );
            assert_eq!(
                quarantined(&fast.electron.coverage),
                quarantined(&lin.electron.coverage),
                "{what}: electron quarantine"
            );
            assert_eq!(
                quarantined(&fast.phonon.coverage),
                quarantined(&lin.phonon.coverage),
                "{what}: phonon quarantine"
            );
        }
    }
}
