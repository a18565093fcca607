//! Metric names, the result of one run, and how it is printed.
//!
//! The names here are the contract later issues refer to; a unit test
//! holds them equal, one for one, to `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of the end-to-end metrics every workload reports.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("work_per_s", "1/s"),
    ("cpu_s_per_work", "s"),
    ("peak_rss_mib", "MiB"),
];

/// `(bound, higher is better)` of [`END_TO_END`], in its order: the share
/// of the parent's median by which a metric may get worse before a change
/// counts as a regression. `--selfcheck` holds two sets of runs of the same
/// code to these bounds.
pub const E2E_BOUNDS: [(f64, bool); 5] = [
    (0.25, false),
    (0.25, false),
    (0.25, true),
    (0.25, false),
    (0.25, false),
];

/// `(name, unit)` of the per-layer metrics of the traced pass. A layer is
/// a module of the program; a metric a workload does not measure (the
/// layer does not run there, or costs more than the run can afford) is
/// reported as 0 — see the README table for which workload measures what.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("host.calib_s", "s"),
    ("host.calib_spread", "ratio"),
    ("model.calibrated_gflops", "Gflop/s"),
    ("linalg.gemm128_gflops", "Gflop/s"),
    ("linalg.gemm_sse_shape_gflops", "Gflop/s"),
    ("linalg.invert128_s", "s"),
    ("linalg.ws_fresh_per_iter", "count"),
    ("boundary.fill_s", "s"),
    ("boundary.misses_warm", "count"),
    ("rgf.solve_s", "s"),
    ("rgf.gflops", "Gflop/s"),
    ("rgf.frac_of_gemm", "ratio"),
    ("gf.electron_s", "s"),
    ("gf.phonon_s", "s"),
    ("gf.gflops", "Gflop/s"),
    ("sse.preprocess_d_s", "s"),
    ("sse.sigma_dace_s", "s"),
    ("sse.pi_dace_s", "s"),
    ("sse.sigma_omen_s", "s"),
    ("sse.stabilize_s", "s"),
    ("sse.dace_gflops", "Gflop/s"),
    ("sse.omen_over_dace", "ratio"),
    ("scf.iter_s", "s"),
    ("scf.self_s", "s"),
    ("scf.gf_share", "ratio"),
    ("scf.sse_share", "ratio"),
    ("scf.flops_per_iter", "flop"),
    ("scf.iters_to_converge", "count"),
    ("scf.warm_iters_to_converge", "count"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.load_s", "s"),
    ("checkpoint.bytes", "B"),
    ("dist.exchange_dace_2x1_s", "s"),
    ("dist.exchange_dace_1x2_s", "s"),
    ("dist.exchange_omen_s", "s"),
    ("dist.exchange_elastic_s", "s"),
    ("dist.gf_phase_s", "s"),
    ("dist.bytes_dace_2x1", "B"),
    ("dist.bytes_dace_1x2", "B"),
    ("dist.bytes_omen", "B"),
    ("dist.omen_over_dace_bytes", "ratio"),
    ("dist.max_rank_recv_bytes", "B"),
    ("dist.bytes_model_residual", "B"),
    ("dist.speedup_vs_serial", "ratio"),
    ("dist.imbalance_ratio", "ratio"),
    ("scenario.load_s", "s"),
    ("serve.req_p50_s", "s"),
    ("serve.req_p90_s", "s"),
    ("serve.req_count", "count"),
    ("serve.submit_s", "s"),
    ("serve.point_s", "s"),
    ("serve.iters_per_point", "count"),
    ("serve.warm_hit_frac", "ratio"),
    ("serve.warm_fallback_frac", "ratio"),
    ("serve.rejected_frac", "ratio"),
    ("serve.retries", "count"),
    ("serve.shutdown_s", "s"),
    ("telemetry.overhead_frac", "ratio"),
];

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed. An operation whose correctness
    /// check fails, or a request that is refused or not `Completed`, is
    /// failed.
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, in the order found.
    pub problems: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        if !value.is_finite() {
            self.problem(format!("metric {name} is not finite ({value})"));
            return;
        }
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Record `what` as a problem unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problem(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, the metrics being every name
    /// of `names` (0 for one this workload does not measure).
    pub fn json_line(&self, names: &[(&'static str, &'static str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = self.get(name).unwrap_or(0.0);
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }

    /// Every metric of `names` by name, with its unit, one per line.
    pub fn table(&self, names: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for (name, unit) in names {
            match self.get(name) {
                Some(v) => writeln!(out, "  {name:<32} {v:>16.6} {unit}"),
                None => writeln!(out, "  {name:<32} {:>16} {unit}", "-"),
            }
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_telemetry::json::Json;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn names_of(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
                (
                    field("name").expect("entry has a name"),
                    field("unit").unwrap_or_default(),
                )
            })
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .chain(crate::inputs::WORKLOADS);
        for name in all {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit.len() <= 16 && !unit.is_empty(), "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn names_match_the_manifest_one_for_one() {
        let doc = manifest();
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_of(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names_of(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names_of(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, crate::inputs::WORKLOADS);
        // setup_s is present with the contract's unit and direction, and
        // carries the largest bound.
        let e2e = doc.get("end_to_end").and_then(Json::as_array).unwrap();
        let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).unwrap();
        let setup = &e2e[0];
        assert!(e2e
            .iter()
            .all(|m| bound(m) <= bound(setup) && bound(m) <= 0.25));
        for (m, (own_bound, higher)) in e2e.iter().zip(E2E_BOUNDS) {
            assert_eq!(bound(m), own_bound);
            let better = if higher { "higher" } else { "lower" };
            assert_eq!(m.get("better").and_then(Json::as_str), Some(better));
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let mut r = Report {
            attempted: 12,
            ..Report::default()
        };
        r.set("setup_s", 0.5);
        r.set("op_p50_s", 1.25e-7);
        let line = r.json_line(&END_TO_END);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(12));
        let metrics = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        }
        let op = metrics.get("op_p50_s").and_then(|m| m.get("value"));
        assert_eq!(op.and_then(Json::as_f64), Some(1.25e-7));

        // A failed check or a non-finite value makes the run incorrect.
        r.set("work_per_s", f64::NAN);
        assert!(!r.correct());
        assert_eq!(r.get("work_per_s"), None);
    }
}
