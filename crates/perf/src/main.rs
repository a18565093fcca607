//! `qt-perf` — the repo's benchmark.
//!
//! One invocation runs one workload in its own process:
//!
//! ```text
//! cargo run --release -p qt-perf -- --workload <name> [--seed <u64>]
//!     [--seconds <s>] [--trace <0|1>] [--scale <full|smoke>] [--selfcheck]
//! ```
//!
//! It prints every metric by name with its unit, checks the program's
//! outputs, and ends with one JSON line `{correct, attempted, failed,
//! metrics}`: the end-to-end metrics with `--trace 0` (telemetry off), the
//! per-layer metrics with `--trace 1` (which also writes the span file).
//! It exits non-zero when a check fails. See `README.md` in this crate.

mod dist;
mod harness;
mod host;
mod inputs;
mod probes;
mod report;
mod scf;
mod selfcheck;
mod serve;
mod spans;
mod stats;

use inputs::{Plan, Scale, WORKLOADS};
use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`, the default of `--seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

/// The parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub selfcheck: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: Scale::Full,
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} cannot be {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Run one pass of one workload and return what it found. The traced
/// pass also writes the span file next to the executable.
fn run_workload(args: &Args) -> Result<Report, String> {
    let plan = Plan::new(args.scale, args.seed, args.seconds);
    let mut report = Report::default();
    let workload = args.workload.as_str();
    // End-to-end numbers always come from a pass with telemetry disabled;
    // the traced pass enables it only inside its overhead measurement.
    qt_telemetry::set_enabled(false);
    if !args.trace {
        match workload {
            "dist_ca2" => dist::run(&plan, &mut report)?,
            "serve_sweep" => serve::run(&plan, &mut report)?,
            _ => scf::run(workload, &plan, &mut report)?,
        }
        return Ok(report);
    }
    let rec = spans::Recorder::new();
    match workload {
        "dist_ca2" => dist::trace(&plan, &mut report, &rec)?,
        "serve_sweep" => serve::trace(&plan, &mut report, &rec)?,
        _ => scf::trace(workload, &plan, &mut report, &rec)?,
    }
    let path = host::out_dir()?.join(format!("{workload}.spans.json"));
    let count = rec.write_json(workload, &path)?;
    println!("spans: {count} written to {}", path.display());
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qt-perf: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return match selfcheck::run(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("qt-perf: selfcheck: {e}");
                ExitCode::from(2)
            }
        };
    }
    println!(
        "workload: {} seed: {} seconds: {} trace: {} scale: {:?} cores: {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let report = match run_workload(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("qt-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    print!("{}", report.table(names));
    println!(
        "ops_attempted: {} ops_failed: {}",
        report.attempted, report.failed
    );
    for problem in &report.problems {
        eprintln!("qt-perf: check failed: {problem}");
    }
    println!("{}", report.json_line(names));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv("--workload dist_ca2 --seed 7 --seconds 15 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("dist_ca2", 7, 15.0, true)
        );
        assert_eq!(a.scale, Scale::Full);
        let d = parse_args(&argv("--workload scf_sse16")).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace, d.selfcheck),
            (1, DEFAULT_SECONDS, false, false)
        );
        assert!(
            parse_args(&argv("--selfcheck --workload serve_sweep"))
                .unwrap()
                .selfcheck
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload scf_sse16 --trace 2",
            "--workload scf_sse16 --seed -1",
            "--workload scf_sse16 --seconds nan",
            "--workload scf_sse16 --scale huge",
            "--workload scf_sse16 --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    /// The smoke scale runs the same code as the full scale, every check
    /// included, on toy sizes: both passes of all four workloads.
    #[test]
    fn smoke_pass_of_every_workload_is_correct() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: workload.to_string(),
                    seed: 1,
                    seconds: 0.0,
                    trace,
                    scale: Scale::Smoke,
                    selfcheck: false,
                };
                let report = run_workload(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
                assert!(
                    report.correct(),
                    "{workload} trace={trace}: {:?}, {} of {} failed",
                    report.problems,
                    report.failed,
                    report.attempted
                );
                assert!(report.attempted >= 1);
                if !trace {
                    for (name, _) in END_TO_END {
                        let v = report
                            .get(name)
                            .unwrap_or_else(|| panic!("{workload}: {name}"));
                        assert!(v > 0.0, "{workload}: {name} = {v}");
                    }
                }
            }
        }
    }
}
