//! `--selfcheck`: the A/A test. Runs a workload in 2 × 3 fresh processes,
//! alternating set A and set B of the *same* executable, and compares the
//! two sets' medians per end-to-end metric against the metric's bound —
//! the comparison the pipeline makes between a parent and a change. Single
//! runs of identical code drift by several percent over minutes on a
//! shared host, which is why medians of alternating runs are compared and
//! not two single runs. Also guards the workload's shape: a workload that
//! stops stressing its layer is noticed instead of silently measuring
//! something else.

use crate::report::{E2E_BOUNDS, END_TO_END};
use crate::stats::median;
use crate::Args;
use qt_telemetry::json::Json;
use std::process::Command;

/// Runs per set.
const RUNS: usize = 3;
/// Minimum share of an iteration the named layer must hold.
const SHAPE_GUARDS: [(&str, &str, f64); 2] = [
    ("scf_gemm128", "scf.gf_share", 0.85),
    ("scf_sse16", "scf.sse_share", 0.65),
];

/// Run this executable on `args`' workload in a fresh process and return
/// the metrics of its result line.
fn child_metrics(args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let scale = match args.scale {
        crate::Scale::Full => "full",
        crate::Scale::Smoke => "smoke",
    };
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", scale])
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(line).map_err(|e| {
        format!(
            "child run printed no result line ({e}); stderr: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )
    })?;
    if !out.status.success() || doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("child run failed its checks: {line}"));
    }
    doc.get("metrics")
        .cloned()
        .ok_or_else(|| "result line has no metrics".to_string())
}

fn value(metrics: &Json, name: &str) -> Result<f64, String> {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("result line has no {name}"))
}

/// `Ok(true)` when both sets agree within every bound and the workload
/// still has its shape.
pub fn run(args: &Args) -> Result<bool, String> {
    let mut sets: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
    for i in 0..2 * RUNS {
        let set = i % 2;
        println!(
            "selfcheck: run {} of {}, set {}",
            i + 1,
            2 * RUNS,
            ["A", "B"][set]
        );
        sets[set].push(child_metrics(args, false)?);
    }
    let mut ok = true;
    println!(
        "{:<16} {:>14} {:>14} {:>9} {:>7}",
        "metric", "median A", "median B", "diff", "bound"
    );
    for ((name, _), (bound, _)) in END_TO_END.iter().zip(E2E_BOUNDS) {
        let med = |set: &[Json]| -> Result<f64, String> {
            let values: Result<Vec<f64>, String> = set.iter().map(|m| value(m, name)).collect();
            Ok(median(&values?))
        };
        let (a, b) = (med(&sets[0])?, med(&sets[1])?);
        let diff = (b - a).abs() / a;
        let verdict = if diff <= bound { "" } else { "  EXCEEDED" };
        println!("{name:<16} {a:>14.6} {b:>14.6} {diff:>9.4} {bound:>7.2}{verdict}");
        ok &= diff <= bound;
    }
    for (workload, share, floor) in SHAPE_GUARDS {
        if args.workload == workload {
            let got = value(&child_metrics(args, true)?, share)?;
            let verdict = if got >= floor { "" } else { "  BELOW FLOOR" };
            println!("shape guard: {share} = {got:.3}, floor {floor}{verdict}");
            ok &= got >= floor;
        }
    }
    Ok(ok)
}
