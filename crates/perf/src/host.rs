//! What the benchmark reads from the host: process CPU time, peak
//! resident memory, a fixed calibration kernel, and a scratch directory.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Kernel clock ticks per second in `/proc/self/stat`. `USER_HZ` is 100 on
/// every Linux ABI; reading it through `sysconf` would need `unsafe`.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has consumed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    parse_stat_cpu(&stat)
}

/// `utime + stime` of a `/proc/<pid>/stat` line. The command name (field
/// 2) may contain spaces and parentheses, so fields are counted from the
/// last `)`.
fn parse_stat_cpu(stat: &str) -> Result<f64, String> {
    let rest = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or("no command field in /proc/self/stat")?;
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> Result<f64, String> {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "short /proc/self/stat".to_string())
    };
    Ok((tick()? + tick()?) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Result<f64, String> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The benchmark's own fixed scalar kernel: a dependent multiply-add chain
/// that touches no memory and calls no code under test. Timed between
/// operations of a traced run, its drift separates a change of the host
/// (frequency, a co-tenant) from a change of the code.
pub fn calibration_kernel_seconds() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0.5f64);
    for _ in 0..6_000_000u32 {
        x = x * 0.999_999 + 1e-7;
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

/// Scratch directory for the span file and the checkpoint probe: next to
/// the running executable, so it sits inside the build's target directory
/// (inside the checkout, ignored by git) wherever that is.
pub fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("qt-perf-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_spaces_and_parens_in_the_command() {
        let line = "42 (a (b) c) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 100 1 1";
        assert_eq!(parse_stat_cpu(line).unwrap(), 3.0);
        assert!(parse_stat_cpu("42 (x) S 1 2").is_err());
        assert!(parse_stat_cpu("garbage").is_err());
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm(status).unwrap(), 2.0);
        assert!(parse_vm_hwm("Name:\tx\n").is_err());
    }

    #[test]
    fn this_process_has_cpu_time_and_memory() {
        assert!(calibration_kernel_seconds() > 0.0);
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
