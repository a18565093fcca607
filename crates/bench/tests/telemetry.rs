//! End-to-end telemetry integration: counter exactness through a full SCF,
//! report/trace validity, and the disabled-telemetry overhead bound.
//!
//! Telemetry state (counters, phase registry, trace buffer, enable flags)
//! is process-global, so every test takes `LOCK` — cargo's default
//! multi-threaded test runner would otherwise interleave spans from
//! concurrent tests into each other's global-attribution deltas.

use std::cell::RefCell;
use std::sync::Mutex;

use qt_core::params::SimParams;
use qt_core::scf::{run_scf, ScfConfig, Simulation};
use qt_linalg::{gemm, Complex64};
use qt_telemetry::counters::{self, Counter};
use qt_telemetry::recorder::{self, TRACE};

static LOCK: Mutex<()> = Mutex::new(());

/// Take the serialization lock, surviving a poisoned mutex (a failed test
/// must not cascade into the rest of the suite).
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

/// The GEMM entry points account exactly `8·m·k·n·batch` real flops per
/// product — the convention every closed-form model in `qt_core::flops`
/// is stated in.
#[test]
fn gemm_flops_counted_exactly() {
    let _g = lock();
    qt_telemetry::reset_all();
    qt_telemetry::set_enabled(true);
    let (m, k, n) = (13usize, 7usize, 5usize);
    let a = vec![Complex64::ONE; m * k];
    let b = vec![Complex64::ONE; k * n];
    let mut out = vec![Complex64::ZERO; m * n];
    let before = counters::total(Counter::Flops);
    gemm::gemm_blocked_acc(m, k, n, &a, &b, &mut out);
    assert_eq!(
        counters::total(Counter::Flops) - before,
        8 * (m * k * n) as u64,
        "one blocked GEMM must count exactly 8·m·k·n flops"
    );
    let before = counters::total(Counter::Flops);
    let batch = 9usize;
    let a = vec![Complex64::ONE; batch * 4];
    let b = vec![Complex64::ONE; batch * 4];
    let mut out = vec![Complex64::ZERO; batch * 4];
    gemm::batched_gemm_acc(2, 2, 2, batch, &a, &b, &mut out);
    assert_eq!(
        counters::total(Counter::Flops) - before,
        8 * 8 * batch as u64
    );
}

/// A small end-to-end SCF where the telemetry-measured GEMM flops equal
/// the `add_gemm_flops_batched` totals exactly: the `scf` global span
/// captures every flop of the run, and the per-variant SSE phase matches
/// the implementation-exact closed form per call.
#[test]
fn scf_phase_flops_equal_counter_totals() {
    let _g = lock();
    qt_telemetry::reset_all();
    qt_telemetry::set_enabled(true);
    let sim = Simulation::new(small_params(), -1.2, 1.2);
    let cfg = ScfConfig {
        max_iterations: 2,
        ..Default::default()
    };
    let out = run_scf(&sim, &cfg).expect("SCF");
    let scf = qt_telemetry::registry::phase("scf").expect("scf phase recorded");
    assert!(scf.flops > 0);
    // Every flop of the run flows through the shared counters inside the
    // scf span — the span delta and the global total must agree exactly.
    assert_eq!(scf.flops, counters::total(Counter::Flops));
    let dace = qt_telemetry::registry::phase("sse/sigma/dace").expect("sse phase recorded");
    assert_eq!(dace.calls as usize, out.iterations);
    assert_eq!(
        dace.flops,
        out.iterations as u64 * qt_core::flops::sse_dace_flops_exact(&sim.p, &sim.dev),
        "SSE flops must match the exact model per sigma call"
    );
    assert_eq!(out.trajectory.len(), out.iterations);
}

/// The report built from a live run round-trips through JSON, validates,
/// and the Chrome trace export is structurally sound.
#[test]
fn report_and_trace_validate_end_to_end() {
    let _g = lock();
    qt_telemetry::reset_all();
    qt_telemetry::set_enabled(true);
    recorder::switch(TRACE, true);
    let sim = Simulation::new(small_params(), -1.2, 1.2);
    let cfg = ScfConfig {
        max_iterations: 1,
        ..Default::default()
    };
    run_scf(&sim, &cfg).expect("SCF");
    recorder::switch(TRACE, false);
    let rep = qt_telemetry::TelemetryReport::from_current();
    rep.validate().expect("live report validates");
    let back = qt_telemetry::TelemetryReport::from_json(&rep.to_json()).expect("roundtrip");
    assert_eq!(back, rep);
    let trace = qt_telemetry::export_chrome_trace();
    let events = qt_telemetry::trace::validate_chrome_trace(&trace).expect("trace validates");
    assert!(events > 0, "tracing a full SCF must record events");
}

/// With telemetry disabled, the instrumented GEMM path must stay close to
/// the `INSTRUMENT = false` monomorphization. The benchmark measures the
/// overhead precisely (qt-perf's `telemetry.overhead_frac`); this smoke
/// version uses min-of-N timings with a band wide enough to be stable on
/// loaded CI runners.
#[test]
fn disabled_telemetry_overhead_is_small() {
    let _g = lock();
    qt_telemetry::reset_all();
    qt_telemetry::set_enabled(false);
    let n = 160usize;
    let a = vec![Complex64::ONE; n * n];
    let b = vec![Complex64::ONE; n * n];
    let out = RefCell::new(vec![Complex64::ZERO; n * n]);
    // Alternate the two kernels and take minima: back-to-back blocks of
    // one kernel see CPU frequency ramps and cache-warmth drift, which
    // dwarf the effect under test.
    let [instrumented, bare] = qt_bench::best_of_alternating_ms(
        9,
        [
            &|| gemm::gemm_blocked_acc(n, n, n, &a, &b, &mut out.borrow_mut()),
            &|| gemm::gemm_blocked_acc_uninstrumented(n, n, n, &a, &b, &mut out.borrow_mut()),
        ],
    );
    assert!(
        instrumented <= bare * 1.25,
        "disabled-telemetry GEMM {instrumented:.4}ms vs uninstrumented {bare:.4}ms"
    );
    qt_telemetry::set_enabled(true);
}
