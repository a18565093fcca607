//! What every workload shares: fresh threads for cold starts, the timed
//! section, and turning its samples into the five end-to-end metrics.

use crate::host;
use crate::inputs::Plan;
use crate::report::Report;
use crate::stats::{batches, median, Batch, Op};
use std::time::Instant;

/// Consecutive batches the timed operations are cut into.
const RATE_BATCHES: usize = 5;

/// Run `f` on a new OS thread and wait for it. The program's workspace
/// arenas and GEMM pack pools are thread-local, so a fresh thread is what
/// makes a repeated cold start inside one process genuinely cold.
pub fn fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        s.spawn(f)
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Make `plan.setups` cold starts, each on a fresh thread, then run `body`
/// on the last one's thread with what it built and every cold-start time:
/// the last cold start's thread carries on warm, as a user's process does.
pub fn after_cold_starts<S>(
    plan: &Plan,
    cold_start: impl Fn() -> Result<(f64, S), String> + Sync,
    body: impl FnOnce(S, &[f64]) -> Result<(), String> + Send,
) -> Result<(), String> {
    let mut setup_s = Vec::with_capacity(plan.setups);
    for _ in 1..plan.setups {
        setup_s.push(fresh_thread(|| cold_start().map(|(secs, _)| secs))?);
    }
    fresh_thread(|| {
        let (secs, state) = cold_start()?;
        setup_s.push(secs);
        body(state, &setup_s)
    })
}

/// Run `op` back to back until both `plan.seconds` and `plan.min_ops` are
/// met. `op` receives its index and returns the work units it completed.
pub fn timed_ops(
    plan: &Plan,
    mut op: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Vec<Op>, String> {
    let mut ops = Vec::new();
    let cpu0 = host::cpu_seconds()?;
    let t0 = Instant::now();
    while ops.len() < plan.min_ops || t0.elapsed().as_secs_f64() < plan.seconds {
        let start = Instant::now();
        let work = op(ops.len())?;
        ops.push(Op {
            dur_s: start.elapsed().as_secs_f64(),
            end_s: t0.elapsed().as_secs_f64(),
            cpu_s: host::cpu_seconds()? - cpu0,
            work,
        });
    }
    Ok(ops)
}

/// Fill in the five end-to-end metrics. Call last: `peak_rss_mib` is the
/// process's high-water mark at this moment.
///
/// The three timing metrics come from the *quietest* of [`RATE_BATCHES`]
/// consecutive batches of the timed operations. Each is a median (or a
/// rate) inside its batch, so one slow operation cannot own it; taking the
/// best batch is what removes the co-tenant bursts of this shared host,
/// which slow everything memory-bound by 10-25 % for 5-15 s at a time and
/// would otherwise move a whole-run median by a tenth from run to run. A
/// change to the program moves every batch alike, the best one included.
pub fn end_to_end(report: &mut Report, setup_s: &[f64], ops: &[Op]) -> Result<(), String> {
    let batches = batches(ops, RATE_BATCHES);
    let lowest = |f: fn(&Batch) -> f64| batches.iter().map(f).fold(f64::INFINITY, f64::min);
    let highest = |f: fn(&Batch) -> f64| batches.iter().map(f).fold(0.0, f64::max);
    report.set("setup_s", median(setup_s));
    report.set("op_p50_s", lowest(|b| b.op_p50_s));
    report.set("work_per_s", highest(|b| b.work_per_s));
    report.set("cpu_s_per_work", lowest(|b| b.cpu_s_per_work));
    report.set("peak_rss_mib", host::peak_rss_mib()?);
    Ok(())
}

/// Samples of the host calibration kernel, taken between operations of a
/// traced pass.
#[derive(Default)]
pub struct HostCalib(Vec<f64>);

impl HostCalib {
    pub fn sample(&mut self) {
        self.0.push(host::calibration_kernel_seconds());
    }

    pub fn report(&self, report: &mut Report) {
        report.set("host.calib_s", median(&self.0));
        report.set("host.calib_spread", crate::stats::spread(&self.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Scale;

    #[test]
    fn timed_section_meets_both_floors_and_fills_every_metric() {
        let plan = Plan {
            seconds: 0.02,
            min_ops: 4,
            ..Plan::new(Scale::Smoke, 1, 0.0)
        };
        let ops = timed_ops(&plan, |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            Ok(2.0)
        })
        .unwrap();
        assert!(ops.len() >= 4);
        assert!(ops.last().unwrap().end_s >= 0.02);
        let mut report = Report::default();
        end_to_end(&mut report, &[0.3, 0.1, 0.2], &ops).unwrap();
        assert_eq!(report.get("setup_s"), Some(0.2));
        for (name, _) in crate::report::END_TO_END {
            assert!(report.get(name).is_some(), "{name}");
        }
        // ~2 work units per ~2 ms.
        let rate = report.get("work_per_s").unwrap();
        assert!(rate > 100.0 && rate < 1100.0, "{rate}");
        // An op error ends the section.
        assert!(timed_ops(&plan, |_| Err("boom".into())).is_err());
    }

    #[test]
    fn fresh_threads_return_values_and_have_their_own_thread_locals() {
        thread_local!(static CELL: std::cell::Cell<u32> = const { std::cell::Cell::new(0) });
        CELL.with(|c| c.set(5));
        assert_eq!(fresh_thread(|| CELL.with(|c| c.get())), 0);
        assert_eq!(CELL.with(|c| c.get()), 5);
    }
}
