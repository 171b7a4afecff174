//! The `sweep` binary's argument checking: an unknown flag, a missing
//! value or a value that does not parse exits non-zero before any work
//! runs, and a minimal valid invocation exits 0.

use std::process::Command;

/// Runs the `sweep` binary with `args` and returns whether it exited 0.
fn sweep(args: &[&str]) -> bool {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("spawn sweep")
        .status
        .success()
}

#[test]
fn rejects_unknown_flags_and_bad_values() {
    for args in [
        &["--queue", "calendar"][..],
        &["--compare", "1"],
        &["--seed", "5"],
        &["--seeds", "abc"],
        &["--adv-drop", "300"],
        &["--seeds"],
        &["search", "--budget", "x"],
        &["search", "--seeds", "1"],
    ] {
        assert!(!sweep(args), "sweep {args:?} exited 0");
    }
}

#[test]
fn minimal_valid_invocation_exits_zero() {
    let out = std::env::temp_dir().join(format!("fd-sweep-cli-{}.json", std::process::id()));
    let ok = sweep(&[
        "--seeds",
        "1",
        "--threads",
        "1",
        "--stream",
        "0",
        "--cache",
        "0",
        "--store-leg",
        "0",
        "--adv",
        "0",
        "--topo",
        "0",
        "--curve",
        "0",
        "--out",
        out.to_str().unwrap(),
    ]);
    std::fs::remove_file(&out).ok();
    assert!(ok, "the minimal invocation failed");
}
