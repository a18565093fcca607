//! The distributed Born loop — `run_scf_with` with the `qt_dist::DistSse`
//! SSE body — against the serial loop at `SseVariant::Dace`, the kernel
//! every tile runs, on the first sweep point of every corpus scenario and
//! at three tilings: both converge in the same number of iterations to
//! currents and Σ≷ within 1e-10, with the same quarantined grid points.
//!
//! Currents compare absolutely: most first sweep points sit at zero bias,
//! where the current is the round-off of cancelling in- and out-flows
//! (1e-14 to 1e-6 in these units), so a relative bound would measure
//! noise. The tilings differ from serial only in the order Π≷ tile
//! partials are summed; the observed gaps are ~1e-14.

use qt_core::health::CoverageReport;
use qt_core::scf::{run_scf_with, ScfOptions, ScfResult};
use qt_core::sse::SseVariant;
use qt_dist::{DistSse, ElasticPolicy, ElasticTiling};

fn quarantined(c: &CoverageReport) -> Vec<usize> {
    c.quarantined.iter().map(|q| q.grid_index).collect()
}

fn rel(a: &qt_linalg::Tensor, b: &qt_linalg::Tensor) -> f64 {
    a.max_abs_diff(b) / b.norm().max(1e-30)
}

#[test]
fn distributed_born_loop_matches_serial_over_the_corpus() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("the scenario corpus is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 5, "the corpus has five scenarios");
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable scenario");
        let built = qt_scenario::load(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let name = built.scenario.name.clone();
        let (bias, temperature) = built.sweep_points()[0];
        let cfg = qt_core::scf::ScfConfig {
            variant: SseVariant::Dace,
            ..built.config_at(bias, temperature)
        };
        let serial = run_scf_with(&built.sim, &cfg, ScfOptions::default())
            .unwrap_or_else(|e| panic!("{name}: serial loop: {e}"));
        assert!(serial.converged, "{name}: the serial loop converges");
        if name == "nanowire-vacancy" {
            assert!(
                !serial.electron.coverage.is_full(),
                "{name} must quarantine"
            );
        }
        for (te, ta) in [(2, 1), (1, 2), (2, 2)] {
            let what = format!("{name} at tiling ({te},{ta})");
            let tiling = ElasticTiling::new(&built.sim.p, te, ta);
            let mut body = DistSse::new(tiling, ElasticPolicy::default());
            let opts = ScfOptions {
                sse: Some(&mut body),
                ..Default::default()
            };
            let dist: ScfResult = run_scf_with(&built.sim, &cfg, opts)
                .unwrap_or_else(|e| panic!("{what}: distributed loop: {e}"));
            assert!(dist.converged, "{what}: converges");
            assert_eq!(dist.iterations, serial.iterations, "{what}: iterations");
            assert!(body.deaths.is_empty(), "{what}: no rank dies");
            for (i, (a, b)) in dist
                .current_history
                .iter()
                .zip(&serial.current_history)
                .enumerate()
            {
                assert!(
                    (a - b).abs() <= 1e-10,
                    "{what}: current {i}: {a:e} vs {b:e}"
                );
            }
            for (t, got, want) in [
                ("Σ<", &dist.sigma.lesser, &serial.sigma.lesser),
                ("Σ>", &dist.sigma.greater, &serial.sigma.greater),
            ] {
                let r = rel(got, want);
                assert!(r <= 1e-10, "{what}: {t} relative difference {r:e}");
            }
            assert_eq!(
                quarantined(&dist.electron.coverage),
                quarantined(&serial.electron.coverage),
                "{what}: quarantined grid points"
            );
        }
    }
}
