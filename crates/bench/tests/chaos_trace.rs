//! `reproduce profile --chaos-kill 1 --trace`, end to end. A binary of its
//! own: the profile run is seconds of CPU in the debug build, and next to
//! `reproduce_cli.rs`'s serve run it would skew that run's deadline gate,
//! which times the sweep against the reference it measured moments before.

use std::process::Command;

/// A rank kill under tracing still writes a valid Chrome trace: frames sent
/// toward the killed rank, which never reads them, leave no half-drawn
/// send→recv flow arc behind for the trace validator to reject.
#[test]
fn profile_chaos_kill_with_trace_validates() {
    let dir = std::env::temp_dir().join(format!("qt-cli-chaos-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (trace, postmortem) = (dir.join("t.json"), dir.join("POSTMORTEM.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args([
            "profile",
            "--chaos-kill",
            "1",
            "--trace",
            trace.to_str().unwrap(),
            "--postmortem",
            postmortem.to_str().unwrap(),
        ])
        .output()
        .expect("spawn reproduce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    let json = std::fs::read_to_string(&trace).expect("trace written");
    qt_telemetry::trace::validate_chrome_trace(&json).expect("trace validates");
    let _ = std::fs::remove_dir_all(&dir);
}
