//! The `experiments` binary's argument handling: every bad invocation
//! exits 2 with the usage line (never a panic), and `--list` prints the
//! known ids. None of these invocations runs an experiment.

use dtnflow_bench::experiments::ALL_IDS;
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary starts")
}

#[test]
fn list_prints_exactly_the_known_ids() {
    let out = experiments(&["--list"]);
    assert!(out.status.success(), "--list failed: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert_eq!(stdout.lines().collect::<Vec<_>>(), ALL_IDS);
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    let cases: [&[&str]; 8] = [
        &["fig2", "--shards", "0"],
        &["fig2", "--shards", "x"],
        &["fig2", "--shards", "-3"],
        &["fig2", "--shards"],
        &["fig2", "--out"],
        &["fig2", "--out", "--quick"],
        &["fig2", "--bogus"],
        &["fig99"],
    ];
    for args in cases {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {:?}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        for flag in ["--quick", "--obs", "--shards", "--out", "--list"] {
            assert!(
                stderr.contains(flag),
                "{args:?}: usage does not name {flag}:\n{stderr}"
            );
        }
    }
}

#[test]
fn no_ids_exits_2_with_usage() {
    let out = experiments(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
