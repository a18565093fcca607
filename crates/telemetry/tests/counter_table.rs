//! The counter table end to end, against artefacts the parent commit (the
//! last one with per-counter functions and hand-written report blocks)
//! wrote for the same counter state.
//!
//! One test, in its own binary: it asserts on process-global totals.

use qt_telemetry::counters::{self, add, local, total, Counter};
use qt_telemetry::{registry, series, TelemetryReport};

const PARENT_PROMETHEUS: &str = include_str!("fixtures/parent_metrics_prom.txt");
const PARENT_LIVE_REPORT: &str = include_str!("fixtures/parent_live_report.json");

/// The value the fixtures hold for the counter in table slot `i`.
fn value(i: usize) -> u64 {
    1000 + 7 * i as u64
}

#[test]
fn every_counter_is_derived_from_its_table_row() {
    // Each `add` lands in `local` and `total` of that counter and of no
    // other.
    for (i, c) in Counter::ALL.into_iter().enumerate() {
        let before = Counter::ALL.map(local);
        add(c, value(i));
        for (d, was) in Counter::ALL.into_iter().zip(before) {
            let grew = if d == c { value(i) } else { 0 };
            assert_eq!(
                local(d) - was,
                grew,
                "{} after add to {}",
                d.name(),
                c.name()
            );
            assert_eq!(total(d), local(d), "{}", d.name());
        }
    }

    // The parent could bump the GEMM hot-section timers only through
    // `timed`, so its fixtures hold them at 0.
    counters::reset_counters();
    for (i, c) in Counter::ALL.into_iter().enumerate() {
        if !c.name().starts_with("gemm.") {
            add(c, value(i));
        }
    }
    assert_eq!(series::render_prometheus(), PARENT_PROMETHEUS);

    // The parent's `from_current()` report of that state: same blocks
    // present, same keys, same order, same bytes. (Its service and corpus
    // counts are not `validate()`-consistent, so it only round-trips.)
    registry::record("test/report/phase", 1_000_000, 8_000, 64, 4096, 16);
    let live = TelemetryReport::from_current();
    assert_eq!(live.to_json(), PARENT_LIVE_REPORT);
    let back = TelemetryReport::from_json(PARENT_LIVE_REPORT).unwrap();
    assert_eq!(back, live);
    assert_eq!(back.to_json(), PARENT_LIVE_REPORT);
}
