//! The `reproduce` binary end to end, for inputs that used to panic:
//! usage errors exit 2 before any work runs, and the smallest accepted
//! sizes run their gates to completion.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce")
}

/// A two-point sweep is the smallest `serve` accepts; the concurrent burst
/// sizes itself from the bias list instead of indexing past it.
#[test]
fn serve_with_two_points_runs_every_gate() {
    let out = reproduce(&["serve", "--points", "2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("burst: 1 concurrent sweeps answered"),
        "{stdout}"
    );
    assert!(stdout.contains("serve: all gates passed"), "{stdout}");
}

/// A chaos victim outside the profile world is a usage error: exit 2,
/// naming the flag and the world size, with nothing run.
#[test]
fn profile_chaos_kill_outside_the_world_is_a_usage_error() {
    let out = reproduce(&["profile", "--chaos-kill", "9"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains("--chaos-kill 9") && stderr.contains("world of 4 ranks"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "no work may start");
}
